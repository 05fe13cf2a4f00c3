import random
import zlib

import pytest

from kq.chain_algebra import GradedModule, NatSystem, homology, vec_add
from kq.cubical import (
    Ball,
    ChainBasis,
    corner_ball,
    cube_ball,
    cylinder_ball,
    facet_ball,
    facet_complex,
    point_ball,
)
from kq.errors import UserInputError
from kq.oracle_support import (
    EnumerationBudget,
    enumerate_block_choices,
    choice_space_size,
)
from kq.track import (
    act_nat,
    compose,
    constant_homotopy,
    extend,
    face_ball_of,
    glue,
    homotopic,
    identity_morphism,
    inject_cubical,
    pt_morphism,
    pullback,
    restrict,
    restrict_to_ball,
    sigma_homotopy,
    solve_for_values,
    obstruction,
    tensor,
    zero_morphism,
    TrackMorphism,
)

from conftest import make_fourfold_algebra, make_massey_algebra, make_z4_algebra
from track_helpers import (
    bottom,
    enumerate_nat,
    enumerate_self_homotopies,
    h0_matrix,
    lift_from_point,
    obstruction_via_action,
    opposite,
    paste,
    random_morphism,
    self_homotopy_space,
    top,
)


@pytest.fixture
def qm():
    return make_massey_algebra()


def modules_for_abc():
    return [
        GradedModule.of([("w", 0)]),
        GradedModule.of([("z1", 1)]),
        GradedModule.of([("z2", 2)]),
        GradedModule.of([("z3", 3)]),
    ]


def mult_map(Q, src, dst, name):
    return pt_morphism(point_ball(), Q, src, dst, {(0, 0): {name: 1}})


def test_point_composition_multiplies(qm):
    L0, L1, L2, _ = modules_for_abc()
    fa = mult_map(qm, L1, L0, "a")
    fb = mult_map(qm, L2, L1, "b")
    ab = compose(fa, fb)
    assert ab.value("", 0) == {(0, "ab"): 1}
    assert ab.check() == []


def test_identity_and_zero_laws(qm):
    rng = random.Random(11)
    for ball in (point_ball(), cube_ball(1), cube_ball(2)):
        L = GradedModule.of([("u", 1), ("v", 2)])
        M = GradedModule.of([("w", 0)])
        f = random_morphism(ball, L, M, qm, rng)
        assert f.check() == []
        ident_src = identity_morphism(ball, L, qm)
        ident_dst = identity_morphism(ball, M, qm)
        assert compose(f, ident_src).equal(f)
        assert compose(ident_dst, f).equal(f)
        z = zero_morphism(ball, M, GradedModule.of([("t", 0)]), qm)
        assert not compose(z, f).values
        back = zero_morphism(ball, GradedModule.of([("s", 3)]), L, qm)
        assert not compose(f, back).values


@pytest.mark.parametrize("ball_name", ["pt", "I1", "I2", "T1"])
def test_composition_associative_random(ball_name, qm):
    balls = {
        "pt": point_ball(),
        "I1": cube_ball(1),
        "I2": cube_ball(2),
        "T1": corner_ball(2, 0),
    }
    ball = balls[ball_name]
    rng = random.Random(zlib.crc32(ball_name.encode()))
    L3 = GradedModule.of([("p", 3)])
    L2 = GradedModule.of([("q", 2)])
    L1 = GradedModule.of([("r", 1)])
    L0 = GradedModule.of([("s", 0)])
    for _ in range(10):
        f = random_morphism(ball, L3, L2, qm, rng)
        g = random_morphism(ball, L2, L1, qm, rng)
        h = random_morphism(ball, L1, L0, qm, rng)
        left = compose(compose(h, g), f)
        right = compose(h, compose(g, f))
        assert left.equal(right)
        assert left.check() == []


def test_restriction_functorial(qm):
    rng = random.Random(7)
    ball = cube_ball(2)
    L2 = GradedModule.of([("q", 2)])
    L1 = GradedModule.of([("r", 1)])
    L0 = GradedModule.of([("s", 0)])
    f = random_morphism(ball, L2, L1, qm, rng)
    g = random_morphism(ball, L1, L0, qm, rng)
    sub = facet_complex(2, 0, 0).cells
    lhs = restrict(compose(g, f), sub)
    rhs = compose(restrict(g, sub), restrict(f, sub))
    assert lhs.equal(rhs)


def test_glue_zero_extension(qm):
    # glue a morphism with a compatible zero: value tables merge
    ball = corner_ball(2, 0)
    L = GradedModule.of([("u", 2)])
    M = GradedModule.of([("w", 0)])
    rng = random.Random(3)
    edge0 = facet_complex(2, 0, 0).cells  # {0*, 00, 01}
    edge1 = facet_complex(2, 1, 0).cells  # {*0, 00, 10}
    f = random_morphism(ball, L, M, qm, rng)
    # restrict to one edge, force zero on the other
    piece = restrict(f, edge0)
    if any(piece.value(c, 0) for c in ("00",)):
        # build a piece that vanishes on the shared vertex so zero glues
        piece = restrict(zero_morphism(ball, L, M, qm), edge0)
    zpiece = restrict(zero_morphism(ball, L, M, qm), edge1)
    glued = glue([piece, zpiece], ball)
    assert glued.check() == []


def test_glue_face_mismatch_rejected(qm):
    ball = corner_ball(2, 0)
    L = GradedModule.of([("u", 1)])
    M = GradedModule.of([("w", 0)])
    edge0 = facet_complex(2, 0, 0).cells
    edge1 = facet_complex(2, 1, 0).cells
    a = pt_morphism(point_ball(), qm, L, M, {(0, 0): {"a": 1}})
    piece0 = lift_from_point(restrict(zero_morphism(ball, L, M, qm), edge0).ball, a)
    piece0 = TrackMorphism(piece0.ball, L, M, qm, piece0.values)
    piece1 = restrict(zero_morphism(ball, L, M, qm), edge1)
    with pytest.raises(UserInputError):
        glue([piece0, piece1], ball)


def test_glue_needs_pieces(qm):
    with pytest.raises(UserInputError, match="^nothing to glue$"):
        glue([], corner_ball(2, 0))


def test_glue_pieces_must_share_modules(qm):
    ball = corner_ball(2, 0)
    L = GradedModule.of([("u", 1)])
    M = GradedModule.of([("w", 0)])
    piece0 = restrict(zero_morphism(ball, L, M, qm), facet_complex(2, 0, 0).cells)
    piece1 = restrict(zero_morphism(ball, L, L, qm), facet_complex(2, 1, 0).cells)
    with pytest.raises(UserInputError, match="^glued pieces must share modules$"):
        glue([piece0, piece1], ball)


def test_glue_piece_outside_the_ball(qm):
    L = GradedModule.of([("u", 1)])
    M = GradedModule.of([("w", 0)])
    piece = zero_morphism(cube_ball(2), L, M, qm)
    with pytest.raises(UserInputError, match="^piece cell '11' outside the glued ball$"):
        glue([piece], corner_ball(2, 0))


def test_glue_pieces_must_cover_the_ball(qm):
    ball = corner_ball(2, 0)
    L = GradedModule.of([("u", 1)])
    M = GradedModule.of([("w", 0)])
    piece = restrict(zero_morphism(ball, L, M, qm), facet_complex(2, 0, 0).cells)
    with pytest.raises(UserInputError, match="^glued pieces do not cover the target ball$"):
        glue([piece], ball)


def test_pt_morphism_needs_one_vertex(qm):
    L = GradedModule.of([("u", 1)])
    M = GradedModule.of([("w", 0)])
    edge = Ball(ChainBasis({"*": 1}, {}))
    with pytest.raises(UserInputError, match="^pt_morphism needs the one-cell base$"):
        pt_morphism(edge, qm, L, M, {(0, 0): {"a": 1}})


def test_tensor_with_point_factor_is_counit_composition(qm):
    L0, L1, L2, _ = modules_for_abc()
    fa = mult_map(qm, L1, L0, "a")
    fb = mult_map(qm, L2, L1, "b")
    t = tensor(fa, fb)
    assert t.ball.basis.cells() == [""]
    assert t.value("", 0) == {(0, "ab"): 1}


def test_tensor_zero_and_boundary_compat(qm):
    rng = random.Random(19)
    L2 = GradedModule.of([("q", 2)])
    L1 = GradedModule.of([("r", 1)])
    L0 = GradedModule.of([("s", 0)])
    g = random_morphism(cube_ball(1), L1, L0, qm, rng)
    f = random_morphism(cube_ball(1), L2, L1, qm, rng)
    z = zero_morphism(cube_ball(1), L2, L1, qm)
    assert not tensor(g, z).values
    assert not tensor(zero_morphism(cube_ball(1), L1, L0, qm), f).values
    tf = tensor(g, f)
    assert tf.check() == []
    # restriction to B' x A equals g tensor (f restricted to A)
    sub = facet_complex(1, 0, 0).cells  # the vertex 0 of the back factor
    lhs = tensor(g, restrict(f, sub))
    rhs_cells = {c1 + c2 for c1 in g.ball.basis.dims for c2 in sub}
    rhs = restrict(tf, rhs_cells)
    assert lhs.equal(rhs)


def test_tensor_associative(qm):
    rng = random.Random(23)
    L3 = GradedModule.of([("p", 3)])
    L2 = GradedModule.of([("q", 2)])
    L1 = GradedModule.of([("r", 1)])
    L0 = GradedModule.of([("s", 0)])
    f = random_morphism(cube_ball(1), L3, L2, qm, rng)
    g = random_morphism(point_ball(), L2, L1, qm, rng)
    h = random_morphism(cube_ball(1), L1, L0, qm, rng)
    assert tensor(tensor(h, g), f).equal(tensor(h, tensor(g, f)))


def test_constant_homotopy_and_opposite(qm):
    rng = random.Random(31)
    ball = cube_ball(1)
    L = GradedModule.of([("u", 2)])
    M = GradedModule.of([("w", 0)])
    f = random_morphism(ball, L, M, qm, rng)
    w = constant_homotopy(f)
    assert w.mor.check() == []
    assert bottom(w).equal(f)
    assert top(w).equal(f)
    assert opposite(w).mor.check() == []
    # pasting with the constant homotopy keeps faces
    p = paste(w, w)
    assert p.mor.check() == []
    assert bottom(p).equal(f)
    assert top(p).equal(f)


def test_homotopic_over_point_iff_h0_classes_agree(qm):
    h0 = homology(qm, 0)
    L1 = GradedModule.of([("r", 1)])
    L2 = GradedModule.of([("q", 2)])
    L0 = GradedModule.of([("s", 0)])
    pt = point_ball()
    # multiplication by ab is nullhomotopic: ab = dx
    f_ab = pt_morphism(pt, qm, L2, L0, {(0, 0): {"ab": 1}})
    w, info = homotopic(f_ab, zero_morphism(pt, L2, L0, qm))
    assert w is not None
    assert w.mor.check() == []
    # the nullhomotopy value is forced to be x
    assert w.mor.value(w.cyl.sleeve(""), 0) == {(0, "x"): 1}
    # multiplication by a is not nullhomotopic
    f_a = pt_morphism(pt, qm, L1, L0, {(0, 0): {"a": 1}})
    w, cert = homotopic(f_a, zero_morphism(pt, L1, L0, qm))
    assert w is None
    # h0 matrices decide homotopy over the point
    rng = random.Random(41)
    for _ in range(10):
        f = random_morphism(pt, L2, L0, qm, rng)
        g = random_morphism(pt, L2, L0, qm, rng)
        wit, _ = homotopic(f, g)
        mf = {k: v.coords for k, v in h0_matrix(f, h0).items()}
        mg = {k: v.coords for k, v in h0_matrix(g, h0).items()}
        assert (wit is not None) == (mf == mg)


def test_homotopic_rel_precondition(qm):
    ball = cube_ball(1)
    L = GradedModule.of([("u", 1)])
    M = GradedModule.of([("w", 0)])
    a_mor = lift_from_point(ball, pt_morphism(point_ball(), qm, L, M, {(0, 0): {"a": 1}}))
    with pytest.raises(UserInputError):
        homotopic(a_mor, zero_morphism(ball, L, M, qm))


def test_homotopy_between_window_cut_ends_is_tainted(massey_algebra):
    # ab * abc has upper degree 5 > r_max = 4: the composite is cut to zero, and
    # only its taint records that; a homotopy between such ends inherits it
    pt = point_ball()
    X5, X3, X0 = (GradedModule.of([(name, r)]) for name, r in (("x5", 5), ("x3", 3), ("x0", 0)))
    f = pt_morphism(pt, massey_algebra, X5, X3, {(0, 0): {"ab": 1}})
    g = pt_morphism(pt, massey_algebra, X3, X0, {(0, 0): {"abc": 1}})
    h = compose(g, f)
    assert h.tainted and not h.values
    w, res = homotopic(h, h)
    assert w.mor.tainted
    assert res.morphism.tainted


def test_extend_zero(qm):
    ball = cube_ball(2)
    L = GradedModule.of([("u", 2)])
    M = GradedModule.of([("w", 0)])
    corner = corner_ball(2, 0)
    partial = restrict_to_ball(zero_morphism(ball, L, M, qm), corner)
    zero_cells = [c for c in ball.basis.cells() if "1" in c]
    res, cert = extend(ball, partial, zero_cells)
    assert res is not None
    assert not res.morphism.values


def test_check_reports_exactly_the_broken_value():
    # over the top cell, which bounds nothing, adding the non-cycle w1 breaks
    # the chain condition there and nowhere else
    Q = make_fourfold_algebra()
    L = GradedModule.of([("u", 3)])
    M = GradedModule.of([("w", 0)])
    f = random_morphism(cube_ball(2), L, M, Q, random.Random(5))
    assert f.check() == []
    f.values[("**", 0)] = vec_add(f.value("**", 0), {(0, "w1"): 1}, Q.m)
    assert f.check() == [("**", 0)]


def test_extend_rejects_partial_data_on_a_prescribed_zero_cell(qm):
    L = GradedModule.of([("u", 2)])
    partial = identity_morphism(corner_ball(2, 0), L, qm)  # nonzero on every vertex
    res, cert = extend(cube_ball(2), partial, ["11", "00"])
    assert res is None
    assert cert == {"generator": "u", "reason": "prescribed zero conflicts with partial data at '00'"}


def test_extension_iff_nullhomotopic(qm):
    # over facets of the square: f extends across the square with zero on the
    # other faces iff f is nullhomotopic rel endpoints
    rng = random.Random(57)
    ball = cube_ball(2)
    L = GradedModule.of([("u", 3)])
    M = GradedModule.of([("w", 0)])
    agree = 0
    for trial in range(40):
        face = facet_ball(2, 0, 0)
        f_face = random_morphism(face, L, M, qm, rng, boundary_zero=True)
        w, _ = homotopic(f_face, zero_morphism(face, L, M, qm))
        zero_cells = [c for c in ball.basis.cells() if c not in face.basis.dims]
        res, cert = extend(ball, f_face, zero_cells)
        assert (w is not None) == (res is not None)
        if w is not None:
            agree += 1
            assert res.morphism.check() == []
    assert 0 < agree  # both outcomes occur over this algebra


def test_sigma_and_action_normalization(qm):
    # acting on the zero morphism by alpha produces obstruction exactly alpha
    nat = NatSystem(qm, 1)
    L3 = GradedModule.of([("t", 3)])
    L0 = GradedModule.of([("w", 0)])
    ball = cube_ball(1)
    zero = zero_morphism(ball, L3, L0, qm)
    for alpha in enumerate_nat(nat, L3, L0):
        for pos, digit in ((0, 0), (0, 1)):
            face = facet_ball(1, pos, digit)
            acted = act_nat(zero, alpha, face)
            assert acted.check() == []
            ob = obstruction(acted, nat)
            assert ob.coords_key() == alpha.coords_key()


def test_action_constant_homotopy_is_identity(qm):
    rng = random.Random(91)
    ball = cube_ball(2)
    L = GradedModule.of([("u", 3)])
    M = GradedModule.of([("w", 0)])
    F = random_morphism(ball, L, M, qm, rng)
    face = facet_ball(2, 1, 0)
    f_face = restrict_to_ball(F, face)
    from kq.track import act

    w = constant_homotopy(f_face)
    acted = act(F, w)
    assert acted.equal(F)


def test_action_transitive_effective_count(qm):
    # morphisms over the interval with fixed endpoint values form a torsor
    # under the level-1 coefficient group: count fillers directly
    from kq.track import solve_for_values

    L = GradedModule.of([("t", 3)])
    M = GradedModule.of([("w", 0)])
    ball = cube_ball(1)
    nat = NatSystem(qm, 1)
    prescribed = {}
    for c in ("0", "1"):
        prescribed[(c, 0)] = {}
    res, cert = solve_for_values(ball, qm, L, M, prescribed, ["*"])
    assert res is not None
    n_fillers = choice_space_size(res)
    assert n_fillers == nat.size(L, M) == 2
    # and the normalized action moves one filler to every other exactly once
    zero = zero_morphism(ball, L, M, qm)
    face = facet_ball(1, 0, 0)
    hit = set()
    for alpha in enumerate_nat(nat, L, M):
        acted = act_nat(zero, alpha, face)
        hit.add(obstruction(acted, nat).coords_key())
    assert len(hit) == n_fillers


def test_obstruction_direct_equals_action_search(qm):
    rng = random.Random(101)
    nat = NatSystem(qm, 1)
    L = GradedModule.of([("t", 3)])
    M = GradedModule.of([("w", 0)])
    ball = cube_ball(1)
    for _ in range(4):
        F = random_morphism(ball, L, M, qm, rng, boundary_zero=True)
        ob = obstruction(F, nat)
        for pos, digit in ((0, 0), (0, 1)):
            face = facet_ball(1, pos, digit)
            found = obstruction_via_action(F, nat, face)
            assert len(found) == 1
            assert found[0].coords_key() == ob.coords_key()
        # the opposite orientation negates the class
        ob_neg = obstruction(F, nat, orientation=-1)
        assert ob_neg.coords_key() == nat.neg(ob).coords_key()
        found = obstruction_via_action(F, nat, facet_ball(1, 0, 0), orientation=-1)
        assert found[0].coords_key() == nat.neg(ob).coords_key()


def test_obstruction_zero_iff_extension(qm):
    rng = random.Random(111)
    nat = NatSystem(qm, 1)
    L = GradedModule.of([("t", 3)])
    M = GradedModule.of([("w", 0)])
    ball = cube_ball(1)
    square = cube_ball(2)
    seen = set()
    for _ in range(8):
        F = random_morphism(ball, L, M, qm, rng, boundary_zero=True)
        ob = obstruction(F, nat)
        injected = inject_cubical(F, 1, 0, square)  # sit on the face x2 = 0
        partial = injected
        zero_cells = [c for c in square.basis.cells() if c not in injected.ball.basis.dims]
        res, _ = extend(square, partial, zero_cells)
        assert (res is not None) == ob.is_zero()
        seen.add(ob.is_zero())
    assert seen == {True, False}


def test_solver_output_always_satisfies_chain_condition(qm):
    # prescribe a random boundary, solve the interior, and check exactly
    from kq.track import solve_for_values

    rng = random.Random(77)
    L = GradedModule.of([("u", 3), ("v", 2)])
    M = GradedModule.of([("w", 0)])
    for ball in (cube_ball(1), cube_ball(2), corner_ball(2, 0)):
        for _ in range(8):
            full = random_morphism(ball, L, M, qm, rng)
            prescribed = {
                (c, i): full.value(c, i)
                for c in ball.boundary
                for i in range(L.size)
            }
            unknown = [c for c in ball.basis.cells() if c not in ball.boundary]
            res, cert = solve_for_values(ball, qm, L, M, prescribed, unknown)
            # the boundary of a full morphism always fills in
            assert res is not None
            mor = res.instantiate().morphism
            assert mor.check() == []
            for c in ball.boundary:
                for i in range(L.size):
                    assert mor.value(c, i) == full.value(c, i)


def test_self_homotopy_count_matches_coefficient_group(qm, two_level_algebra):
    # top-dimension case for a 1-truncated algebra over the point
    L = GradedModule.of([("t", 3)])
    M = GradedModule.of([("w", 0)])
    nat = NatSystem(qm, 1)
    f = pt_morphism(point_ball(), qm, L, M, {(0, 0): {"abc": 1}})
    res, _, _ = self_homotopy_space(f)
    assert choice_space_size(res) == nat.size(L, M)
    # top-dimension case over the interval for a 2-truncated algebra
    q2 = two_level_algebra
    nat2 = NatSystem(q2, 2)
    L2 = GradedModule.of([("t", 3)])
    M2 = GradedModule.of([("w", 0)])
    rng = random.Random(5)
    f2 = random_morphism(cube_ball(1), L2, M2, q2, rng)
    res2, _, _ = self_homotopy_space(f2)
    assert choice_space_size(res2) == nat2.size(L2, M2) == 2


def test_self_homotopy_classes_below_top(two_level_algebra):
    # over the point for a 2-truncated algebra, self-homotopies modulo
    # homotopy-of-homotopies biject with the level-1 coefficient group
    q = two_level_algebra
    L = GradedModule.of([("t", 2)])
    M = GradedModule.of([("w", 0)])
    f = pt_morphism(point_ball(), q, L, M, {(0, 0): {"b": 1}})
    witnesses = list(enumerate_self_homotopies(f, EnumerationBudget(2**16)))
    classes = []
    for w in witnesses:
        placed = False
        for rep in classes:
            wit, _ = homotopic(rep.mor, w.mor)
            if wit is not None:
                placed = True
                break
        if not placed:
            classes.append(w)
    nat1 = NatSystem(q, 1)
    assert len(classes) == nat1.size(L, M)


def _z4_solves():
    """Solves over Z/4 with free parameters: all cells unknown, and one endpoint given."""
    q = make_z4_algebra()
    L = GradedModule.of([("u", 2), ("v", 1)])
    M = GradedModule.of([("w", 0)])
    ball = cube_ball(1)
    given = {("0", 0): {(0, "b"): 1}, ("0", 1): {(0, "a"): 1}}
    return [
        (ball, q, L, M, {}, list(ball.basis.cells())),
        (ball, q, L, M, given, ["1", "*"]),
    ]


def test_instantiate_matches_solving_with_choices():
    for args in _z4_solves():
        res, cert = solve_for_values(*args)
        assert res is not None
        assert choice_space_size(res) > 1
        for choices in enumerate_block_choices(res.blocks):
            replay = res.instantiate(choices)
            assert [b.log("s")["chosen"] for b in replay.blocks] == [list(choices[b.generator]) for b in res.blocks]
            assert replay.morphism.check() == []
            # instantiating a member again replaces its solved values
            assert res.instantiate().instantiate(choices).morphism.values == replay.morphism.values


def test_choice_vector_of_wrong_length_rejected():
    args = _z4_solves()[0]
    res, _ = solve_for_values(*args)
    width = len(res.blocks[0].solutions.kernel_basis)
    bad = {0: (1,) * (width + 1)}
    with pytest.raises(UserInputError):
        res.instantiate(bad)


def test_tensor_rejects_a_cylinder_ball(qm):
    L1 = GradedModule.of([("r", 1)])
    L0 = GradedModule.of([("s", 0)])
    jball, _ = cylinder_ball(cube_ball(1))
    g = zero_morphism(jball, L1, L0, qm)
    f = mult_map(qm, GradedModule.of([("q", 2)]), L1, "b")
    with pytest.raises(UserInputError, match="cubical"):
        tensor(g, f)
    with pytest.raises(UserInputError, match="cubical"):
        tensor(mult_map(qm, L1, L0, "a"), zero_morphism(jball, GradedModule.of([("q", 2)]), L1, qm))


def test_restricted_and_injected_balls_have_their_own_boundary():
    # the rim of the restricted ball carries nonzero values, so there is no
    # obstruction class to read, and a self-homotopy is relative to that rim
    q = make_massey_algebra()
    L = GradedModule.of([("u", 3)])
    M = GradedModule.of([("w", 0)])
    F = random_morphism(cube_ball(2), L, M, q, random.Random(5))
    assert F.value("00", 0) and F.value("01", 0)
    G = restrict(F, {"0*", "00", "01"})
    assert G.ball.boundary == {"00", "01"}
    with pytest.raises(UserInputError, match="obstruction needs a boundary-trivial morphism"):
        obstruction(G, NatSystem(q, 1))
    w, _ = homotopic(G, G)
    assert w.cyl.collapse == {"00", "01"}
    moved = inject_cubical(restrict(F, {"*0", "00", "10"}), 0, 1, cube_ball(3))
    assert moved.ball.boundary == {"100", "110"}
