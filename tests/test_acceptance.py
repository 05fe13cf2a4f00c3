"""Acceptance suite: one test per criterion, each printing a PASS line.

Expected constants are confirmed by independent oracles inside the tests
(enumeration, homology membership, exhaustive choice walks) before any
frozen value is asserted.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from pathlib import Path

from kq.chain_algebra import ChainAlgebra, GradedModule, NatSystem, homology
from kq.cubical import (
    CylinderComplex,
    corner_ball,
    cube_ball,
    cube_complex,
    facet_ball,
    facet_complex,
    is_regular_sequence,
    point_ball,
)
from kq.oracle_support import EnumerationBudget, choice_space_size
from kq.toda import (
    MorphismSequence,
    adams_d,
    build_chain_complex,
    oracle_bracket_set,
    toda_bracket,
    triple_indeterminacy,
)
from kq.track import (
    act_nat,
    compose,
    extend,
    face_ball_of,
    glue,
    homotopic,
    identity_morphism,
    obstruction,
    pullback,
    restrict,
    restrict_to_ball,
    tensor,
    zero_morphism,
    pt_morphism,
)

from conftest import make_massey_algebra, make_two_level_algebra
from randalg import bracket_instances, budget_feasible, random_valid_algebra
from track_helpers import (
    enumerate_self_homotopies,
    obstruction_via_action,
    random_morphism,
    self_homotopy_space,
    solve_chain_map,
)
from test_cubical import (
    dd_is_zero,
    diagonal_is_chain_map,
    diagonal_is_coassociative,
    diagonal_is_counital,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def report(num, ok, text):
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


def make_massey_algebra_mod(m):
    q2 = make_massey_algebra()
    return ChainAlgebra(
        m,
        q2.n,
        q2.r_max,
        [(x, q2.bidegree[x][0], q2.bidegree[x][1]) for x in q2.names],
        q2.unit,
        q2.diff,
        q2.mul,
    )


def abc_sequence(q, stacked=False):
    L0 = GradedModule.of([("w", 0)])
    L1 = GradedModule.of([("z1", 1)])
    L2 = GradedModule.of([("z2", 2)])
    pt = point_ball()
    fa = pt_morphism(pt, q, L1, L0, {(0, 0): {"a": 1}})
    fb = pt_morphism(pt, q, L2, L1, {(0, 0): {"b": 1}})
    if stacked:
        L3 = GradedModule.of([("z3", 3), ("z3b", 3)])
        fc = pt_morphism(pt, q, L3, L2, {(0, 0): {"c": 1}, (0, 1): {"c": 1}})
    else:
        L3 = GradedModule.of([("z3", 3)])
        fc = pt_morphism(pt, q, L3, L2, {(0, 0): {"c": 1}})
    return MorphismSequence.of([L0, L1, L2, L3], [fa, fb, fc])


def test_criterion_1_axiom_suite():
    t0 = time.monotonic()
    from kq.cubical import complex_basis

    for n in range(5):
        basis = complex_basis(cube_complex(n))
        assert dd_is_zero(basis)
        assert diagonal_is_chain_map(basis)
        assert diagonal_is_coassociative(basis)
        assert diagonal_is_counital(basis)
    elapsed = time.monotonic() - t0
    report(1, elapsed < 5.0, f"cube axioms through dimension 4, exact, {elapsed:.2f}s")


def broken_variants():
    """Ten mutations of the worked algebra, each with its expected witness."""
    out = []

    def base_elements(extra=(), n=1):
        q = make_massey_algebra()
        els = [(x, q.bidegree[x][0], q.bidegree[x][1]) for x in q.names]
        return q, els + list(extra), n

    q = make_massey_algebra()
    q.diff["ay"] = {}
    out.append((q, "leibniz", ("a", "y")))

    q = make_massey_algebra()
    q.diff["xc"] = {}
    out.append((q, "leibniz", ("x", "c")))

    q0, els, _ = base_elements([("w", 3, 2)], n=2)
    q = ChainAlgebra(2, 2, 4, els, "1", {**q0.diff, "w": {"ay": 1}}, q0.mul)
    out.append((q, "d_squared", ("w",)))

    q0, els, _ = base_elements([("w", 3, 2)], n=1)
    q = ChainAlgebra(2, 1, 4, els, "1", {**q0.diff, "w": {"ay": 1}}, q0.mul)
    out.append((q, "truncation", ("w",)))

    q = make_massey_algebra()
    q.mul[("1", "a")] = {}
    out.append((q, "unit", ("a",)))

    q = make_massey_algebra()
    del q.mul[("ab", "c")]
    out.append((q, "associativity", ("a", "b", "c")))

    q = make_massey_algebra()
    q.mul[("a", "b")] = {"abc": 1}
    out.append((q, "degree", ("a", "b", "abc")))

    q = make_massey_algebra()
    q.diff["x"] = {"a": 1}
    out.append((q, "degree", ("x", "a")))

    q = make_massey_algebra()
    q.diff["x"] = {}
    out.append((q, "leibniz", ("x", "c")))

    q0, els, _ = base_elements([("bad", 9, 0)], n=1)
    q = ChainAlgebra(2, 1, 4, els, "1", q0.diff, q0.mul)
    out.append((q, "degree", ("bad",)))
    return out


def test_criterion_2_algebra_suite():
    t0 = time.monotonic()
    assert make_massey_algebra().validate() == []
    variants = broken_variants()
    assert len(variants) == 10
    for q, axiom, witness in variants:
        rep = q.validate()
        assert rep, f"variant for {axiom} {witness} was not rejected"
        assert any(
            v["axiom"] == axiom and v["witness"] == witness for v in rep
        ), f"expected witness {axiom} {witness}, got {rep[:4]}"
    elapsed = time.monotonic() - t0
    report(2, elapsed < 1.0, f"worked algebra valid, 10 mutants rejected with witnesses, {elapsed:.2f}s")


def test_criterion_3_category_laws():
    t0 = time.monotonic()
    q = make_massey_algebra()
    balls = [point_ball(), cube_ball(1), cube_ball(2), corner_ball(2, 0)]
    L3 = GradedModule.of([("p", 3)])
    L2 = GradedModule.of([("q", 2)])
    L1 = GradedModule.of([("r", 1)])
    L0 = GradedModule.of([("s", 0)])
    rng = random.Random(301)
    count = 0
    for ball in balls:
        ident = identity_morphism(ball, L3, q)
        for _ in range(25):
            f = random_morphism(ball, L3, L2, q, rng)
            g = random_morphism(ball, L2, L1, q, rng)
            h = random_morphism(ball, L1, L0, q, rng)
            assert compose(compose(h, g), f).equal(compose(h, compose(g, f)))
            assert compose(f, ident).equal(f)
            assert compose(identity_morphism(ball, L2, q), f).equal(f)
            count += 1
    elapsed = time.monotonic() - t0
    report(3, count == 100 and elapsed < 30.0, f"associativity and units on {count} random triples, {elapsed:.2f}s")


def test_criterion_4_gluing_rule():
    t0 = time.monotonic()
    q = make_massey_algebra()
    tball = corner_ball(3, 0)
    faces = [facet_complex(3, pos, 0) for pos in range(3)]
    L = GradedModule.of([("u", 3)])
    M = GradedModule.of([("w", 0)])
    rng = random.Random(401)
    for _ in range(50):
        F = random_morphism(tball, L, M, q, rng)
        pieces = [restrict(F, fc.cells) for fc in faces]
        results = []
        for perm in itertools.permutations(range(3)):
            assert is_regular_sequence([faces[t] for t in perm])
            glued = glue([pieces[t] for t in perm], tball)
            results.append(glued)
        for r in results[1:]:
            assert r.equal(results[0])
    elapsed = time.monotonic() - t0
    report(4, elapsed < 30.0, f"all regular orders of the 3-face assembly agree, 50 instances, {elapsed:.2f}s")


def test_criterion_5_extension_property():
    t0 = time.monotonic()
    q = make_massey_algebra()
    square = cube_ball(2)
    L = GradedModule.of([("u", 3)])
    M = GradedModule.of([("w", 0)])
    rng = random.Random(501)
    outcomes = {True: 0, False: 0}
    for trial in range(100):
        pos, digit = [(0, 0), (0, 1), (1, 0), (1, 1)][trial % 4]
        face = facet_ball(2, pos, digit)
        f = random_morphism(face, L, M, q, rng, boundary_zero=True)
        w, _ = homotopic(f, zero_morphism(face, L, M, q))
        zero_cells = [c for c in square.basis.cells() if c not in face.basis.dims]
        res, _ = extend(square, f, zero_cells)
        assert (w is None) == (res is None)
        outcomes[w is not None] += 1
        if res is not None:
            assert res.morphism.check() == []
    elapsed = time.monotonic() - t0
    report(
        5,
        outcomes[True] > 0 and outcomes[False] > 0 and elapsed < 30.0,
        f"extension iff nullhomotopy on 100 facet morphisms ({outcomes[True]} yes / {outcomes[False]} no), {elapsed:.2f}s",
    )


def test_criterion_6_boundary_formula():
    t0 = time.monotonic()
    q = make_massey_algebra()
    L2 = GradedModule.of([("q", 2)])
    L1 = GradedModule.of([("r", 1)])
    L0 = GradedModule.of([("s", 0)])
    square = cube_ball(2)
    u_ball = face_ball_of(square, {"1*", "*1", "10", "01", "11"}, label="upper")
    uop_ball = face_ball_of(square, {"0*", "*0", "00", "01", "10"}, label="lower")
    h_u = solve_chain_map(
        u_ball.basis, uop_ball.basis, {"10": {"10": 1}, "01": {"01": 1}}, q.m
    )
    assert h_u is not None
    rng = random.Random(601)
    for _ in range(25):
        G = random_morphism(cube_ball(1), L1, L0, q, rng)
        F = random_morphism(cube_ball(1), L2, L1, q, rng)
        lower = glue(
            [tensor(restrict(G, {"0"}), F), tensor(G, restrict(F, {"0"}))], uop_ball
        )
        upper = glue(
            [tensor(restrict(G, {"1"}), F), tensor(G, restrict(F, {"1"}))], u_ball
        )
        lhs = pullback(lower, h_u, u_ball)
        w, _ = homotopic(lhs, upper, rel=u_ball.boundary)
        assert w is not None and w.mor.check() == []
    elapsed = time.monotonic() - t0
    report(6, elapsed < 30.0, f"boundary-formula witnesses found for 25 homotopy pairs, {elapsed:.2f}s")


def test_criterion_7_abelianness_and_orientation():
    t0 = time.monotonic()
    q = make_massey_algebra()
    q2 = make_two_level_algebra()
    # (a) solution spaces of boundary-trivial self-homotopies match the
    # coefficient groups, at top dimension exactly, below it after quotient
    L = GradedModule.of([("t", 3)])
    M = GradedModule.of([("w", 0)])
    nat1 = NatSystem(q, 1)
    f = pt_morphism(point_ball(), q, L, M, {(0, 0): {"abc": 1}})
    res, _, _ = self_homotopy_space(f)
    assert choice_space_size(res) == nat1.size(L, M)
    rng = random.Random(701)
    nat2_top = NatSystem(q2, 2)
    f2 = random_morphism(cube_ball(1), GradedModule.of([("t", 3)]), M, q2, rng)
    res2, _, _ = self_homotopy_space(f2)
    assert choice_space_size(res2) == nat2_top.size(GradedModule.of([("t", 3)]), M)
    # below top dimension: classes rel boundary
    Lb = GradedModule.of([("t", 2)])
    fb = pt_morphism(point_ball(), q2, Lb, M, {(0, 0): {"b": 1}})
    classes = []
    for w in enumerate_self_homotopies(fb, EnumerationBudget(2**16)):
        if not any(homotopic(rep.mor, w.mor)[0] is not None for rep in classes):
            classes.append(w)
    assert len(classes) == NatSystem(q2, 1).size(Lb, M)
    # (b) the opposite orientation negates every obstruction class
    ball = cube_ball(1)
    nat = NatSystem(q, 1)
    for trial in range(6):
        F = random_morphism(ball, L, M, q, rng, boundary_zero=True)
        ob = obstruction(F, nat)
        assert obstruction(F, nat, orientation=-1).coords_key() == nat.neg(ob).coords_key()
    # cross-checked through the action route on one instance
    F = random_morphism(ball, L, M, q, rng, boundary_zero=True)
    ob = obstruction(F, nat)
    found = obstruction_via_action(F, nat, facet_ball(1, 0, 0), orientation=-1)
    assert len(found) == 1 and found[0].coords_key() == nat.neg(ob).coords_key()
    elapsed = time.monotonic() - t0
    report(7, elapsed < 60.0, f"self-homotopy spaces match coefficient groups; orientation negates, {elapsed:.2f}s")


def test_criterion_8_worked_massey_product():
    t0 = time.monotonic()
    q = make_massey_algebra()
    seq = abc_sequence(q)
    nat = NatSystem(q, 1)
    # independent confirmations first: homology of the expected cycle, then
    # the exhaustive oracle, then the deterministic path
    h1 = homology(q, 1)
    expected = h1.class_of({"ay": 1, "xc": 1}, 3)
    assert not expected.is_zero()
    reps = oracle_bracket_set(q, seq, 1, EnumerationBudget(2**12), nat=nat)
    assert len(reps) == 1
    assert reps[0].entries == ((0, 0, expected),)
    res = toda_bracket(q, seq, 1, nat=nat)
    assert res.status == "defined"
    assert res.representative.entries == ((0, 0, expected),)
    assert triple_indeterminacy(q, seq, nat=nat) == []
    elapsed = time.monotonic() - t0
    report(8, elapsed < 10.0, f"worked triple product equals its oracle singleton, {elapsed:.2f}s")


def test_criterion_9_coset_law():
    t0 = time.monotonic()

    def nat_span(nat, gens, src, dst):
        zero = nat.zero(src, dst)
        seen = {zero.coords_key(): zero}
        frontier = [zero]
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = nat.add(cur, g)
                if nxt.coords_key() not in seen:
                    seen[nxt.coords_key()] = nxt
                    frontier.append(nxt)
        return seen

    rng = random.Random(2024)
    checked = 0
    tried = 0
    while checked < 10 and tried < 60:
        tried += 1
        q = random_valid_algebra(rng)
        for seq in bracket_instances(q, rng, want=2):
            if checked >= 10 or not budget_feasible(q, seq):
                continue
            nat = NatSystem(q, 1)
            res = toda_bracket(q, seq, 1, nat=nat)
            if res.status != "defined":
                continue
            reps = oracle_bracket_set(q, seq, 1, EnumerationBudget(2**14), nat=nat)
            gens = triple_indeterminacy(q, seq, nat=nat)
            span = nat_span(nat, gens, seq.modules[3], seq.modules[0])
            coset = {nat.add(res.representative, e).coords_key() for e in span.values()}
            assert {r.coords_key() for r in reps} == coset
            checked += 1
    elapsed = time.monotonic() - t0
    report(9, checked == 10, f"oracle set is exactly one indeterminacy coset on {checked} random instances, {elapsed:.2f}s")


def test_criterion_10_adams_consistency():
    t0 = time.monotonic()
    instances = []
    # non-extending instances: the worked family over three moduli, plus a
    # two-generator stacked variant
    for m in (2, 3, 4):
        q = make_massey_algebra_mod(m)
        assert q.validate() == []
        instances.append((q, abc_sequence(q), False))
    q = make_massey_algebra()
    instances.append((q, abc_sequence(q, stacked=True), False))
    # extending instances from the random pool
    rng = random.Random(777)
    while len(instances) < 10:
        qr = random_valid_algebra(rng)
        for seq in bracket_instances(qr, rng, want=2):
            if len(instances) >= 10 or not budget_feasible(qr, seq):
                continue
            natr = NatSystem(qr, 1)
            if toda_bracket(qr, seq, 1, nat=natr).status != "defined":
                continue
            if triple_indeterminacy(qr, seq, nat=natr):
                continue
            instances.append((qr, seq, True))
    n_ext = 0
    for q, seq, expect_extending in instances:
        nat = NatSystem(q, 1)
        window = MorphismSequence.of(seq.modules[:3], seq.maps[:2])
        hcc, fail = build_chain_complex(q, window, 1, nat=nat)
        assert fail is None
        res = adams_d(q, hcc, seq.maps[2], 1, nat=nat)
        assert res.status == "defined"
        independent = toda_bracket(q, seq, 1, nat=nat)
        assert res.representative.coords_key() == independent.representative.coords_key()
        full, _ = build_chain_complex(q, seq, 1, nat=nat)
        if expect_extending:
            assert full is not None
            assert res.representative.is_zero()
            n_ext += 1
        else:
            assert full is None
            assert not res.representative.is_zero()
    elapsed = time.monotonic() - t0
    report(
        10,
        len(instances) == 10,
        f"adams route: zero on {n_ext} extending instances, equals the bracket on the rest, {elapsed:.2f}s",
    )


def test_criterion_11_cli_determinism():
    t0 = time.monotonic()
    commands = [
        ["validate", "--algebra", str(FIXTURES / "massey_algebra.json")],
        ["homology", "--algebra", str(FIXTURES / "massey_algebra.json"), "--k", "1"],
        ["truncate", "--algebra", str(FIXTURES / "massey_algebra.json"), "--n", "0"],
        [
            "toda",
            "--algebra",
            str(FIXTURES / "massey_algebra.json"),
            "--sequence",
            str(FIXTURES / "massey_sequence_abc.json"),
            "--n",
            "1",
        ],
        [
            "massey",
            "--algebra",
            str(FIXTURES / "massey_algebra.json"),
            "--sequence",
            str(FIXTURES / "massey_sequence_abc.json"),
            "--n",
            "1",
        ],
        [
            "oracle",
            "--algebra",
            str(FIXTURES / "massey_algebra.json"),
            "--sequence",
            str(FIXTURES / "massey_sequence_abc.json"),
            "--n",
            "1",
        ],
        [
            "chain-complex",
            "--algebra",
            str(FIXTURES / "massey_algebra.json"),
            "--sequence",
            str(FIXTURES / "massey_sequence_abc.json"),
            "--n",
            "1",
        ],
        [
            "adams-d",
            "--algebra",
            str(FIXTURES / "massey_algebra.json"),
            "--sequence",
            str(FIXTURES / "massey_sequence_abc.json"),
            "--n",
            "1",
        ],
    ]
    root = str(Path(__file__).resolve().parent.parent)
    for cmd in commands:
        argv = [sys.executable, "-m", "kq"] + cmd
        r1 = subprocess.run(argv, capture_output=True, cwd=root)
        r2 = subprocess.run(argv, capture_output=True, cwd=root)
        assert r1.returncode == 0, r1.stderr
        assert r1.stdout == r2.stdout
        json.loads(r1.stdout)
    elapsed = time.monotonic() - t0
    report(11, elapsed < 120.0, f"all CLI commands byte-identical across reruns, {elapsed:.2f}s")
