import collections
import copy
import functools
import random

import pytest

import kq.cubical
import kq.oracle_support
import kq.toda
import kq.track
from kq.chain_algebra import ChainAlgebra, GradedModule, NatSystem, homology
from kq.cubical import Ball, ChainBasis, corner_ball, cube_ball, point_ball
from kq.documents import parse_algebra
from kq.errors import UserInputError
from kq.exact_linalg import AffineSolutionSet
from kq.oracle_support import EnumerationBudget, SolveBlock, enumerate_block_choices
from kq.toda import (
    BracketResult,
    MorphismSequence,
    PointMap,
    adams_d,
    build_chain_complex,
    oracle_bracket_set,
    toda_bracket,
    triple_indeterminacy,
    DEFINED,
    NOT_CONSTRUCTIBLE,
    WINDOW_UNSOUND,
)
from kq.tower_cli import parse_sequence
from kq.track import compose, pt_morphism, zero_morphism

from conftest import make_massey_algebra
from randalg import bracket_instances, budget_feasible, random_valid_algebra, sequence_doc
from test_closed_form import universal


@pytest.fixture
def qm():
    return make_massey_algebra()


def abc_sequence(qm):
    L0 = GradedModule.of([("w", 0)])
    L1 = GradedModule.of([("z1", 1)])
    L2 = GradedModule.of([("z2", 2)])
    L3 = GradedModule.of([("z3", 3)])
    pt = point_ball()
    fa = pt_morphism(pt, qm, L1, L0, {(0, 0): {"a": 1}})
    fb = pt_morphism(pt, qm, L2, L1, {(0, 0): {"b": 1}})
    fc = pt_morphism(pt, qm, L3, L2, {(0, 0): {"c": 1}})
    return MorphismSequence.of([L0, L1, L2, L3], [fa, fb, fc])


def test_sequence_maps_need_the_point(qm):
    L0 = GradedModule.of([("w", 0)])
    L1 = GradedModule.of([("z1", 1)])
    edge = Ball(ChainBasis({"*": 1}, {}))
    with pytest.raises(UserInputError, match="^sequence maps must live over the point$"):
        MorphismSequence.of([L0, L1], [zero_morphism(edge, L1, L0, qm)])


def test_sequence_maps_need_the_point_ball_cell(qm):
    # a one-cell base named "p" is a point too, but the walk reads a(i,0) at the cell "";
    # over it, a, b, c used to give `defined` with a zero representative
    L = [GradedModule.of([(f"z{t}", t)]) for t in range(4)]

    def abc_over(base):
        return [pt_morphism(base, qm, L[t + 1], L[t], {(0, 0): {x: 1}}) for t, x in enumerate("abc")]

    rep = toda_bracket(qm, MorphismSequence.of(L, abc_over(point_ball())), 1).representative
    assert rep.entries == ((0, 0, homology(qm, 1).class_of({"ay": 1, "xc": 1}, 3)),)
    with pytest.raises(UserInputError, match="^sequence maps must live over the point$"):
        MorphismSequence.of(L, abc_over(Ball(ChainBasis({"p": 0}, {}))))


def test_a_tainted_sequence_map_makes_the_bracket_unsound(qm):
    # abc * ab lies in upper degree 5, above the window (rMax 4): their composite over the point is 0 and tainted
    L = [GradedModule.of([(f"z{t}", d)]) for t, d in enumerate((0, 1, 2, 7))]
    B = GradedModule.of([("u", 5)])
    pt = point_ball()
    cut = compose(pt_morphism(pt, qm, B, L[2], {(0, 0): {"abc": 1}}), pt_morphism(pt, qm, L[3], B, {(0, 0): {"ab": 1}}))
    assert cut.tainted and not cut.values
    fa = pt_morphism(pt, qm, L[1], L[0], {(0, 0): {"a": 1}})
    fb = pt_morphism(pt, qm, L[2], L[1], {(0, 0): {"b": 1}})
    seq = MorphismSequence.of(L, [fa, fb, cut])
    assert seq.maps[2] == PointMap(L[3], L[2], ({},), True)
    assert toda_bracket(qm, seq, 1).status == WINDOW_UNSOUND
    # the same zero map with no cut gives a defined bracket: the taint alone makes the difference
    clean = MorphismSequence.of(L, [fa, fb, zero_morphism(pt, L[3], L[2], qm)])
    assert toda_bracket(qm, clean, 1).status == DEFINED


def _model_route(doc, Q):
    """doc's sequence with its maps built by pt_morphism over the point ball, as MorphismSequence.of reads them."""
    modules = parse_sequence(doc, Q).modules
    maps = []
    for t, item in enumerate(doc["maps"]):
        entries = {}
        for e in item["entries"]:
            row = entries.setdefault((e["row"], e["col"]), {})
            for v in e["value"]:
                row[v["gen"]] = row.get(v["gen"], 0) + v["coeff"]
        maps.append(pt_morphism(point_ball(), Q, modules[t + 1], modules[t], entries))
    return MorphismSequence.of(modules, maps)


def test_both_routes_build_one_map_type():
    # a sequence read from its document and one built from pt_morphism maps hold equal point maps
    for seed in range(3):
        rng = random.Random(seed)
        q = random_valid_algebra(rng)
        for seq in bracket_instances(q, rng):
            assert parse_sequence(sequence_doc(seq), q).maps == seq.maps
    for order in (1, 2, 3):
        for modulus in (3, 4):
            rng = random.Random(10 * order + modulus)
            algebra, _ = parse_algebra(universal.algebra_doc(order, modulus, rng))
            doc = universal.sequence_doc(order, universal.draw_units(order, modulus, rng))
            unreduced = copy.deepcopy(doc)  # every coefficient off by -modulus, as two terms of one name
            for e in (e for item in unreduced["maps"] for e in item["entries"]):
                e["value"] = [{**v, "coeff": c} for v in e["value"] for c in (v["coeff"] - 2 * modulus, modulus)]
            zeroed = copy.deepcopy(doc)  # the second map's entry vanishes mod the modulus
            zeroed["maps"][1]["entries"][0]["value"][0]["coeff"] = modulus
            for variant in (doc, unreduced, zeroed):
                seq = parse_sequence(variant, algebra)
                assert seq.maps == _model_route(variant, algebra).maps
                assert parse_sequence(sequence_doc(seq), algebra).maps == seq.maps
            assert parse_sequence(unreduced, algebra).maps == parse_sequence(doc, algebra).maps
            assert parse_sequence(zeroed, algebra).maps[1].images == ({},)


def test_massey_product_of_abc(qm):
    seq = abc_sequence(qm)
    result = toda_bracket(qm, seq, 1)
    assert result.status == DEFINED
    rep = result.representative
    assert not rep.is_zero()
    # the class is [a*y + x*c] in homology level 1, degree 3
    h1 = homology(qm, 1)
    expected = h1.class_of({"ay": 1, "xc": 1}, 3)
    assert rep.entries == ((0, 0, expected),)


def test_massey_triple_indeterminacy_vanishes(qm):
    seq = abc_sequence(qm)
    gens = triple_indeterminacy(qm, seq)
    assert gens == []


def test_massey_oracle_is_singleton(qm):
    seq = abc_sequence(qm)
    reps = oracle_bracket_set(qm, seq, 1, EnumerationBudget(2**12))
    assert len(reps) == 1
    main = toda_bracket(qm, seq, 1).representative
    assert reps[0].coords_key() == main.coords_key()


def test_bracket_with_zero_middle_map(qm):
    L0 = GradedModule.of([("w", 0)])
    L1 = GradedModule.of([("z1", 1)])
    L2 = GradedModule.of([("z2", 2)])
    L3 = GradedModule.of([("z3", 3)])
    pt = point_ball()
    fa = pt_morphism(pt, qm, L1, L0, {(0, 0): {"a": 1}})
    zero_mid = pt_morphism(pt, qm, L2, L1, {})
    fc = pt_morphism(pt, qm, L3, L2, {(0, 0): {"c": 1}})
    seq = MorphismSequence.of([L0, L1, L2, L3], [fa, zero_mid, fc])
    result = toda_bracket(qm, seq, 1)
    assert result.status == DEFINED
    # the pinned particular solution of d h = 0 is zero, so the
    # representative vanishes
    assert result.representative.is_zero()


def test_bracket_not_constructible(qm):
    # first composite a*1 = a is not nullhomotopic
    L0 = GradedModule.of([("w", 0)])
    Ls = GradedModule.of([("s", 1)])
    Lt = GradedModule.of([("t", 1)])
    Lr = GradedModule.of([("r", 2)])
    pt = point_ball()
    f1 = pt_morphism(pt, qm, Ls, L0, {(0, 0): {"a": 1}})
    f2 = pt_morphism(pt, qm, Lt, Ls, {(0, 0): {"1": 1}})
    f3 = pt_morphism(pt, qm, Lr, Lt, {(0, 0): {"b": 1}})
    seq = MorphismSequence.of([L0, Ls, Lt, Lr], [f1, f2, f3])
    result = toda_bracket(qm, seq, 1)
    assert result.status == NOT_CONSTRUCTIBLE
    assert result.step == 1 and result.index == 1
    assert result.certificate


def test_bracket_contains_zero_with_identity_last_map(qm):
    # <c, ab, 1>: composites c*ab = 0 (degree window kills cab? c*ab is not
    # declared, hence zero) and ab*1 = ab ~ 0
    L0 = GradedModule.of([("w", 0)])
    L1 = GradedModule.of([("z1", 1)])
    L3 = GradedModule.of([("z3", 3)])
    pt = point_ball()
    fc = pt_morphism(pt, qm, L1, L0, {(0, 0): {"c": 1}})
    fab = pt_morphism(pt, qm, L3, L1, {(0, 0): {"ab": 1}})
    fid = pt_morphism(pt, qm, L3, L3, {(0, 0): {"1": 1}})
    seq = MorphismSequence.of([L0, L1, L3, L3], [fc, fab, fid])
    reps = oracle_bracket_set(qm, seq, 1, EnumerationBudget(2**14))
    assert any(r.is_zero() for r in reps)


def test_bracket_invariant_under_homologous_lifts(qm):
    # replace the lift of the middle map by a homologous cycle: b + d(nothing)
    # has no room in degree 1, so perturb the first map by a boundary in
    # degree 2 instead: a stays, c stays, middle becomes b (only lift).
    # Use the last map: c vs c + d(q) with d(q) in degree 1: no boundaries in
    # degree 1 either; so perturb a composite-level lift: the sequence with
    # maps into two-generator modules where ab-entries admit boundary shifts.
    L0 = GradedModule.of([("w", 0)])
    L2 = GradedModule.of([("z2", 2)])
    L3 = GradedModule.of([("z3", 3)])
    pt = point_ball()
    f1 = pt_morphism(pt, qm, L2, L0, {(0, 0): {"ab": 1}})
    f1_shift = pt_morphism(pt, qm, L2, L0, {(0, 0): {"ab": 1, "bc": 1}})
    # ab and ab+bc are NOT homologous (both are boundaries actually: ab = dx,
    # bc = dy, so both f1 and f1_shift are nullhomotopic and homologous)
    f2 = pt_morphism(pt, qm, L3, L2, {(0, 0): {"c": 1}})
    fid = pt_morphism(pt, qm, L3, L3, {(0, 0): {"1": 1}})
    seq_a = MorphismSequence.of([L0, L2, L3, L3], [f1, f2, fid])
    seq_b = MorphismSequence.of([L0, L2, L3, L3], [f1_shift, f2, fid])
    set_a = {r.coords_key() for r in oracle_bracket_set(qm, seq_a, 1, EnumerationBudget(2**14))}
    set_b = {r.coords_key() for r in oracle_bracket_set(qm, seq_b, 1, EnumerationBudget(2**14))}
    assert set_a == set_b


def test_chain_complex_zero_sequence(qm):
    L = GradedModule.of([("z", 2)])
    pt = point_ball()
    z = pt_morphism(pt, qm, L, L, {})
    seq = MorphismSequence.of([L, L, L], [z, z])
    hcc, fail = build_chain_complex(qm, seq, 1)
    assert fail is None
    assert all(not any(images) for images, _ in hcc.data.values())


def test_chain_complex_two_term_ab(qm):
    L0 = GradedModule.of([("w", 0)])
    L1 = GradedModule.of([("z1", 1)])
    L2 = GradedModule.of([("z2", 2)])
    pt = point_ball()
    fa = pt_morphism(pt, qm, L1, L0, {(0, 0): {"a": 1}})
    fb = pt_morphism(pt, qm, L2, L1, {(0, 0): {"b": 1}})
    seq = MorphismSequence.of([L0, L1, L2], [fa, fb])
    hcc, fail = build_chain_complex(qm, seq, 1)
    assert fail is None
    images, _ = hcc.data[(1, 1)]
    assert images == ({(0, "x"): 1},)


def test_chain_complex_fails_on_massey_sequence(qm):
    seq = abc_sequence(qm)
    hcc, fail = build_chain_complex(qm, seq, 1)
    assert hcc is None
    assert fail["step"] == 2 and fail["index"] == 1
    # the failure is precisely the nonzero bracket
    rep = toda_bracket(qm, seq, 1).representative
    assert fail["certificate"]["obstruction"] == rep.coords_key()


def test_adams_zero_class(qm):
    L0 = GradedModule.of([("w", 0)])
    L1 = GradedModule.of([("z1", 1)])
    L2 = GradedModule.of([("z2", 2)])
    L3 = GradedModule.of([("z3", 3)])
    pt = point_ball()
    fa = pt_morphism(pt, qm, L1, L0, {(0, 0): {"a": 1}})
    fb = pt_morphism(pt, qm, L2, L1, {(0, 0): {"b": 1}})
    seq = MorphismSequence.of([L0, L1, L2], [fa, fb])
    hcc, fail = build_chain_complex(qm, seq, 1)
    assert fail is None
    beta = pt_morphism(pt, qm, L3, L2, {})
    res = adams_d(qm, hcc, beta, 1)
    assert res.status == DEFINED
    assert res.representative.is_zero()


def test_adams_matches_triple_bracket(qm):
    L0 = GradedModule.of([("w", 0)])
    L1 = GradedModule.of([("z1", 1)])
    L2 = GradedModule.of([("z2", 2)])
    L3 = GradedModule.of([("z3", 3)])
    pt = point_ball()
    fa = pt_morphism(pt, qm, L1, L0, {(0, 0): {"a": 1}})
    fb = pt_morphism(pt, qm, L2, L1, {(0, 0): {"b": 1}})
    window = MorphismSequence.of([L0, L1, L2], [fa, fb])
    hcc, fail = build_chain_complex(qm, window, 1)
    assert fail is None
    beta = pt_morphism(pt, qm, L3, L2, {(0, 0): {"c": 1}})
    res = adams_d(qm, hcc, beta, 1)
    assert res.status == DEFINED
    full = toda_bracket(qm, MorphismSequence.of([L0, L1, L2, L3], [fa, fb, beta]), 1)
    assert res.representative.coords_key() == full.representative.coords_key()
    assert not res.representative.is_zero()


def test_adams_window_too_short(qm):
    L2 = GradedModule.of([("z2", 2)])
    L3 = GradedModule.of([("z3", 3)])
    pt = point_ball()
    z = pt_morphism(pt, qm, L2, L2, {})
    seq = MorphismSequence.of([L2, L2], [z])
    hcc, fail = build_chain_complex(qm, seq, 1)
    assert fail is None
    beta = pt_morphism(pt, qm, L3, L2, {})
    with pytest.raises(UserInputError):
        adams_d(qm, hcc, beta, 1)


def test_adams_rejects_non_cocycle(qm):
    # beta whose composite with the end of the window is not nullhomotopic
    L0 = GradedModule.of([("w", 0)])
    L2 = GradedModule.of([("z2", 2)])
    L3 = GradedModule.of([("z3", 3)])
    L3b = GradedModule.of([("v", 3)])
    pt = point_ball()
    f1 = pt_morphism(pt, qm, L2, L0, {(0, 0): {"ab": 1}})
    f2 = pt_morphism(pt, qm, L3, L2, {(0, 0): {"c": 1}})
    window = MorphismSequence.of([L0, L2, L3], [f1, f2])
    hcc, fail = build_chain_complex(qm, window, 1)
    assert fail is None
    beta = pt_morphism(pt, qm, L3b, L3, {(0, 0): {"1": 1}})
    res = adams_d(qm, hcc, beta, 1)
    assert res.status == NOT_CONSTRUCTIBLE
    assert res.step == 1 and res.index == 2


def fourfold_sequence(q4):
    mods = [GradedModule.of([(f"g{t}", t)]) for t in range(5)]
    pt = point_ball()
    maps = [
        pt_morphism(pt, q4, mods[t + 1], mods[t], {(0, 0): {letter: 1}})
        for t, letter in enumerate("abcd")
    ]
    return MorphismSequence.of(mods, maps)


def test_fourfold_bracket_order_two():
    from conftest import make_fourfold_algebra

    q4 = make_fourfold_algebra()
    assert q4.validate() == []
    seq = fourfold_sequence(q4)
    # independent confirmation: the expected cycle spans H_2 in degree 4
    h2 = homology(q4, 2)
    assert h2.size(4) == 2
    expected = h2.class_of({"aw2": 1, "x1x3": 1, "w1d": 1}, 4)
    assert not expected.is_zero()
    result = toda_bracket(q4, seq, 2)
    assert result.status == DEFINED
    assert result.representative.entries == ((0, 0, expected),)
    # every choice is forced here, so the oracle set is that singleton
    reps = oracle_bracket_set(q4, seq, 2, EnumerationBudget(2**14))
    assert len(reps) == 1
    assert reps[0].coords_key() == result.representative.coords_key()


def test_fourfold_chain_complex_fails_with_bracket_certificate():
    from conftest import make_fourfold_algebra

    q4 = make_fourfold_algebra()
    seq = fourfold_sequence(q4)
    hcc, fail = build_chain_complex(q4, seq, 2)
    assert hcc is None
    assert fail["step"] == 3 and fail["index"] == 1
    rep = toda_bracket(q4, seq, 2).representative
    assert fail["certificate"]["obstruction"] == rep.coords_key()


def test_adams_order_two():
    from conftest import make_fourfold_algebra

    q4 = make_fourfold_algebra()
    seq = fourfold_sequence(q4)
    window = MorphismSequence.of(seq.modules[:4], seq.maps[:3])
    hcc, fail = build_chain_complex(q4, window, 2)
    assert fail is None
    beta = seq.maps[3]
    res = adams_d(q4, hcc, beta, 2)
    assert res.status == DEFINED
    direct = toda_bracket(q4, seq, 2)
    assert res.representative.coords_key() == direct.representative.coords_key()
    assert not res.representative.is_zero()


def test_fourfold_bracket_order_two_mod3():
    # nontrivial Koszul signs: gluing compatibility and the corner
    # obstruction must still hold over Z/3
    from conftest import make_fourfold_algebra_mod3

    q4 = make_fourfold_algebra_mod3()
    assert q4.validate() == []
    seq = fourfold_sequence(q4)
    h2 = homology(q4, 2)
    assert h2.size(4) == 3
    result = toda_bracket(q4, seq, 2)
    assert result.status == DEFINED
    assert not result.representative.is_zero()
    reps = oracle_bracket_set(q4, seq, 2, EnumerationBudget(2**14))
    assert len(reps) == 1
    assert reps[0].coords_key() == result.representative.coords_key()
    # the adams route agrees over Z/3 as well
    window = MorphismSequence.of(seq.modules[:4], seq.maps[:3])
    hcc, fail = build_chain_complex(q4, window, 2)
    assert fail is None
    res = adams_d(q4, hcc, seq.maps[3], 2)
    assert res.representative.coords_key() == result.representative.coords_key()


def test_bracket_marked_unsound_when_window_escapes():
    # the nullhomotopy x of u*v gets multiplied by u at upper degree 3,
    # past the declared window: the result must be flagged, not trusted
    from kq.chain_algebra import ChainAlgebra

    elements = [("1", 0, 0), ("u", 1, 0), ("v", 1, 0), ("uv", 2, 0), ("x", 2, 1)]
    diff = {"x": {"uv": 1}}
    mul = {("u", "v"): {"uv": 1}, ("v", "u"): {"uv": 1}}
    q = ChainAlgebra(2, 1, 2, elements, "1", diff, mul)
    assert q.validate() == []
    mods = [GradedModule.of([(f"g{t}", t)]) for t in range(4)]
    pt = point_ball()
    maps = [
        pt_morphism(pt, q, mods[1], mods[0], {(0, 0): {"u": 1}}),
        pt_morphism(pt, q, mods[2], mods[1], {(0, 0): {"v": 1}}),
        pt_morphism(pt, q, mods[3], mods[2], {(0, 0): {"u": 1}}),
    ]
    seq = MorphismSequence.of(mods, maps)
    result = toda_bracket(q, seq, 1)
    assert result.status == "degree_window_unsound"
    with pytest.raises(UserInputError):
        oracle_bracket_set(q, seq, 1, EnumerationBudget(2**10))


def test_sequence_composability_validated(qm):
    L0 = GradedModule.of([("w", 0)])
    L1 = GradedModule.of([("z1", 1)])
    pt = point_ball()
    fa = pt_morphism(pt, qm, L1, L0, {(0, 0): {"a": 1}})
    with pytest.raises(UserInputError):
        MorphismSequence.of([L0, L0, L0], [fa, fa])


def _instance_with_free_parameters():
    rng = random.Random(2024)
    for _ in range(60):
        q = random_valid_algebra(rng)
        for seq in bracket_instances(q, rng, want=2):
            if not budget_feasible(q, seq):
                continue
            if any(e["free_parameters"] for e in toda_bracket(q, seq, 1).choice_log):
                return q, seq
    raise AssertionError("no random instance with free parameters")


@pytest.mark.parametrize("walk", ["oracle", "chain-complex"])
def test_walk_solves_each_state_once(walk, monkeypatch):
    q, seq = _instance_with_free_parameters()
    calls = {"solve": 0, "enumerate": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(kq.toda._Walk, "solve", counted("solve", kq.toda._Walk.solve))
    monkeypatch.setattr(
        kq.toda, "enumerate_block_choices", counted("enumerate", kq.toda.enumerate_block_choices)
    )
    if walk == "oracle":
        oracle_bracket_set(q, seq, 1, EnumerationBudget(2**14))
    else:
        build_chain_complex(q, seq, 1, search_budget=EnumerationBudget(2**14))
    # at order 1 every stage is solvable, so each non-leaf state enumerates its choices once
    assert calls["enumerate"] > 1
    assert calls["solve"] == calls["enumerate"]


# (every pick walked, states, distinct stage keys, members) of the tower-walk
# shape at seeds 1 and 431: the walk with the collapse turned off, which is
# the walk before inert directions were detected, and the collapsed walk,
# which follows one pick per class of inert picks (kq.toda._Walk.inert); each
# charges its budget 3241
TOWER_WALKS = ((True, 1365, 180, 192), (False, 9, 9, 9))


def _walk_every_pick(mp, every_pick):
    """With every_pick, turn the collapse off: no kernel direction is inert."""
    if every_pick:
        mp.setattr(kq.toda._Walk, "inert", lambda walk, i, k, res: None)


@pytest.mark.parametrize("walk", ["oracle", "chain-complex"])
def test_walk_factors_each_operator_once(walk, monkeypatch):
    # the shape of the tower-walk benchmark: order 3 over Z/4 with a free cycle
    rng = random.Random(1)
    algebra, _ = parse_algebra(universal.algebra_doc(3, 4, rng, free_cycle=True))
    seq = parse_sequence(universal.sequence_doc(3, universal.draw_units(3, 4, rng)), algebra)
    solve, operator, factor = kq.toda._Walk.solve, kq.toda.solve_operator, kq.oracle_support.factor
    seen = {"solves": 0, "builds": 0, "factors": 0, "operators": set()}

    def counted_solve(walk, keys, cone):
        # stage (i, k) maps X_(i+k) to X_(i-1): one operator per source degree
        i, k = cone[:2]
        src = seq.modules[i + k]
        seen["operators"].update((seq.modules[i - 1], src.degree(g), k) for g in range(src.size))
        seen["solves"] += 1
        return solve(walk, keys, cone)

    def counted_operator(*args, **kwargs):
        seen["builds"] += 1
        return operator(*args, **kwargs)

    def counted_factor(*args, **kwargs):
        seen["factors"] += 1
        return factor(*args, **kwargs)

    monkeypatch.setattr(kq.toda._Walk, "solve", counted_solve)
    monkeypatch.setattr(kq.toda, "solve_operator", counted_operator)
    monkeypatch.setattr(kq.oracle_support, "factor", counted_factor)
    for every_pick, states, _, _ in TOWER_WALKS:
        with monkeypatch.context() as mp:
            _walk_every_pick(mp, every_pick)
            for _ in range(2):  # a second walk builds its operators again: nothing outlives a walk
                seen.update(solves=0, builds=0, factors=0, operators=set())
                if walk == "oracle":
                    assert oracle_bracket_set(algebra, seq, 3)
                else:
                    build_chain_complex(algebra, seq, 3)
                # each operator is built and reduced once
                assert seen["builds"] == seen["factors"] == len(seen["operators"]) == 9
                # the full walk solves its 1365 states against 9 operators, the collapsed one each stage once
                assert seen["solves"] == states


def _cone_of(entries, i, k):
    """The solved entries that stage (i, k) depends on, with their images."""
    return tuple(
        sorted(
            (key, tuple(tuple(sorted(vec.items())) for vec in images))
            for key, (images, _) in entries.items()
            if i <= key[0] and key[0] + key[1] <= i + k
        )
    )


def _tower_walk_shape(seed):
    """Order 3 over Z/4 with a free cycle: seed 1 is the tower-walk benchmark, 431 the golden budget ladder."""
    rng = random.Random(seed)
    algebra, _ = parse_algebra(universal.algebra_doc(3, 4, rng, free_cycle=True))
    return algebra, parse_sequence(universal.sequence_doc(3, universal.draw_units(3, 4, rng)), algebra)


def _run_walk(walk, algebra, seq):
    """The walk over every choice, and the budget it charged."""
    budget = EnumerationBudget(2**14)
    if walk == "oracle":
        assert oracle_bracket_set(algebra, seq, 3, budget)
    else:
        build_chain_complex(algebra, seq, 3, search_budget=budget)
    return budget


@pytest.mark.parametrize("seed", [1, 431])
@pytest.mark.parametrize("walk", ["oracle", "chain-complex"])
def test_walk_solves_each_cone_once(walk, seed, monkeypatch):
    algebra, seq = _tower_walk_shape(seed)
    walk_solve, solve_block = kq.toda._Walk.solve, kq.toda.solve_block
    seen = {"states": 0, "cones": set(), "solves": 0}

    def counted_walk_solve(walk, keys, cone):
        i, k = cone[:2]
        seen["states"] += 1
        entries = {stage: walk.entry(keys, *stage) for stage in walk.stages[: len(keys)]}
        seen["cones"].add((i, k, _cone_of(entries, i, k)))
        return walk_solve(walk, keys, cone)

    def counted_solve_block(operator, src, gen, const, m):
        seen["solves"] += gen == 0  # a stage solve solves the block of each source generator in turn
        return solve_block(operator, src, gen, const, m)

    monkeypatch.setattr(kq.toda._Walk, "solve", counted_walk_solve)
    monkeypatch.setattr(kq.toda, "solve_block", counted_solve_block)
    for every_pick, states, cones, _ in TOWER_WALKS:
        with monkeypatch.context() as mp:
            _walk_every_pick(mp, every_pick)
            for _ in range(2):  # a second walk solves every cone again: nothing outlives a walk
                seen.update(states=0, cones=set(), solves=0)
                budget = _run_walk(walk, algebra, seq)
                # one solve per stage and distinct picks in its cone, however many states reach it
                assert seen["states"] == states
                assert seen["solves"] == len(seen["cones"]) == cones
                assert budget.spent == 3241  # the same states, walked or stood for, as when every state solved its stage


@pytest.mark.parametrize("seed", [1, 431])
@pytest.mark.parametrize("walk", ["oracle", "chain-complex"])
def test_walk_builds_each_member_once(walk, seed, monkeypatch):
    algebra, seq = _tower_walk_shape(seed)
    seen = {"choose": 0, "log": 0, "cone": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            seen[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("choose", "log"):
        monkeypatch.setattr(SolveBlock, name, counted(name, getattr(SolveBlock, name)))
    monkeypatch.setattr(kq.toda._Walk, "cone", counted("cone", kq.toda._Walk.cone))
    for every_pick, states, _, members in TOWER_WALKS:
        with monkeypatch.context() as mp:
            _walk_every_pick(mp, every_pick)
            for _ in range(2):  # a second walk builds its members again: nothing outlives a walk
                seen.update(choose=0, log=0, cone=0)
                _run_walk(walk, algebra, seq)
                # each stage here has one source generator, so one block: one vector and
                # one choice-log entry per member, not one per state that picks it
                assert seen["log"] == seen["choose"] == members
                assert seen["cone"] == states  # one stage key per state


@pytest.mark.parametrize("walk", ["oracle", "chain-complex"])
def test_walk_works_out_kernel_orders_once_per_block(walk, monkeypatch):
    algebra, seq = _tower_walk_shape(1)
    solve_block, orders = kq.toda.solve_block, AffineSolutionSet.orders
    seen = {"blocks": 0, "orders": 0, "enumerations": 0}

    def counted_solve_block(*args, **kwargs):
        block, cert = solve_block(*args, **kwargs)
        seen["blocks"] += block is not None
        return block, cert

    def counted_orders(solutions):
        seen["orders"] += 1
        return orders.func(solutions)

    def counted_enumerate(blocks, budget=None):
        seen["enumerations"] += len(blocks)
        return enumerate_block_choices(blocks, budget)

    counted = functools.cached_property(counted_orders)
    counted.__set_name__(AffineSolutionSet, "orders")
    monkeypatch.setattr(kq.toda, "solve_block", counted_solve_block)
    monkeypatch.setattr(kq.toda, "enumerate_block_choices", counted_enumerate)
    monkeypatch.setattr(AffineSolutionSet, "orders", counted)
    for every_pick, states, cones, _ in TOWER_WALKS:
        with monkeypatch.context() as mp:
            _walk_every_pick(mp, every_pick)
            seen.update(blocks=0, orders=0, enumerations=0)
            _run_walk(walk, algebra, seq)
            # each state enumerates the one block of its stage; the full walk reaches each block from many states
            assert seen["enumerations"] == states
            assert seen["orders"] == seen["blocks"] == cones


def test_standard_balls_are_shared_and_stay_pristine():
    assert cube_ball(2) is cube_ball(2)
    assert corner_ball(3, 0) is corner_ball(3, 0)
    rng = random.Random(7)
    algebra, violations = parse_algebra(universal.algebra_doc(3, 2, rng, free_cycle=True))
    assert violations == []
    seq = parse_sequence(universal.sequence_doc(3, universal.draw_units(3, 2, rng)), algebra)
    assert oracle_bracket_set(algebra, seq, 3, EnumerationBudget(2**14))
    assert toda_bracket(algebra, seq, 3).status == DEFINED
    used = [(cube_ball, (k,)) for k in (1, 2, 3)] + [(corner_ball, (k, 0)) for k in (1, 2, 3, 4)]
    for make, args in used:
        shared, fresh = make(*args), make.__wrapped__(*args)
        assert shared is not fresh
        assert shared.basis.dims == fresh.basis.dims
        assert shared.basis.bnd == fresh.basis.bnd
        assert shared.boundary == fresh.boundary


def test_tower_stages_build_no_cube_balls():
    rng = random.Random(4)
    algebra, _ = parse_algebra(universal.algebra_doc(4, 2, rng))
    seq = parse_sequence(universal.sequence_doc(4, universal.draw_units(4, 2, rng)), algebra)
    cube_ball.cache_clear()
    assert toda_bracket(algebra, seq, 4).status == DEFINED
    assert cube_ball.cache_info().misses == 0


def test_tower_members_are_vectors(monkeypatch):
    # a stage solves on its top cell's operator and keeps each member as vectors,
    # with no ball, basis or morphism per stage key or member; a chain complex
    # holds those vectors, and adams-d reads them back as they are.  The parsed
    # sequence holds point maps, so from document to answer no model object is built
    built = collections.Counter()

    def counted(cls):
        init = cls.__init__

        def wrapper(self, *args, **kwargs):
            built[cls.__name__] += 1
            init(self, *args, **kwargs)

        return wrapper

    for cls in (kq.cubical.ChainBasis, kq.cubical.Ball, kq.track.TrackMorphism):
        monkeypatch.setattr(cls, "__init__", counted(cls))
    algebra, seq = _tower_walk_shape(1)
    assert all(type(f) is PointMap for f in seq.maps)
    window = MorphismSequence.of(seq.modules[:5], seq.maps[:4])
    assert toda_bracket(algebra, seq, 3).status == DEFINED
    assert oracle_bracket_set(algebra, seq, 3, EnumerationBudget(2**14))
    complex_, fail = build_chain_complex(algebra, window, 3)
    assert fail is None
    assert adams_d(algebra, complex_, seq.maps[4], 3).status == DEFINED
    assert built == {}
    assert all(isinstance(images, tuple) for images, _ in complex_.data.values())
    for name in ("solve_for_values", "Ball", "ChainBasis"):
        assert not hasattr(kq.toda, name)
    # the morphism constructors left in track build the sequence maps and the model's data
    assert {name for name in vars(kq.track) if name.endswith("_morphism")} == {
        "identity_morphism",
        "pt_morphism",
        "zero_morphism",
    }


def test_replay_pinned_choice():
    rng = random.Random(24)
    algebra, _ = parse_algebra(universal.algebra_doc(2, 4, rng, free_cycle=True))
    seq = parse_sequence(universal.sequence_doc(2, universal.draw_units(2, 4, rng)), algebra)
    default = toda_bracket(algebra, seq, 2)
    stage = {"stage": "level 1 index 2", "generator": 0, "free_parameters": 1, "chosen": [0]}
    assert stage in default.choice_log
    res = toda_bracket(algebra, seq, 2, choices={(2, 1): {0: (3,)}})
    assert res.status == DEFINED
    assert {**stage, "chosen": [3]} in res.choice_log
    assert [e for e in res.choice_log if e["stage"] != "level 1 index 2"] == [
        e for e in default.choice_log if e["stage"] != "level 1 index 2"
    ]
    bracket_set = oracle_bracket_set(algebra, seq, 2, EnumerationBudget(2**14))
    assert res.representative.coords_key() in [r.coords_key() for r in bracket_set]
    with pytest.raises(UserInputError):
        toda_bracket(algebra, seq, 2, choices={(2, 1): {0: (1, 0)}})


FOREIGN_NAT = "the natural system must be the level-1 system of this algebra"


def test_a_natural_system_of_the_wrong_level_is_rejected(qm):
    # a level-0 system would read the level-1 corner sums in the wrong bidegree
    seq = abc_sequence(qm)
    with pytest.raises(UserInputError, match=FOREIGN_NAT):
        toda_bracket(qm, seq, 1, nat=NatSystem(qm, 0))
    with pytest.raises(UserInputError, match=FOREIGN_NAT):
        triple_indeterminacy(qm, seq, nat=NatSystem(qm, 0))


def test_a_natural_system_of_another_algebra_is_rejected(qm):
    # the same tables over Z/3 present other homology
    q3 = ChainAlgebra(3, qm.n, qm.r_max, [(x, *qm.bidegree[x]) for x in qm.names], qm.unit, qm.diff, qm.mul)
    seq = abc_sequence(qm)
    for call in (
        lambda nat: toda_bracket(qm, seq, 1, nat=nat),
        lambda nat: oracle_bracket_set(qm, seq, 1, nat=nat),
        lambda nat: triple_indeterminacy(qm, seq, nat=nat),
    ):
        with pytest.raises(UserInputError, match=FOREIGN_NAT):
            call(NatSystem(q3, 1))
    # the system of the algebra itself is accepted, and answers as the default one
    own = toda_bracket(qm, seq, 1, nat=NatSystem(qm, 1))
    assert own.representative.coords_key() == toda_bracket(qm, seq, 1).representative.coords_key()


def test_a_zero_bracket_is_not_read_at_the_wrong_level():
    # a zero bracket read at level 0 would come back as a level-0 element, with no error
    rng = random.Random(3)
    q = random_valid_algebra(rng)
    seq = bracket_instances(q, rng)[0]
    res = toda_bracket(q, seq, 1)
    assert res.status == DEFINED and res.representative.is_zero() and res.representative.k == 1
    with pytest.raises(UserInputError, match=FOREIGN_NAT):
        toda_bracket(q, seq, 1, nat=NatSystem(q, 0))
