"""Cross-module structural laws: pasting, actions, unions, boundary formula."""

import random

import pytest

from kq.chain_algebra import GradedModule, NatSystem
from kq.cubical import (
    corner_ball,
    cube_ball,
    facet_ball,
    facet_complex,
    point_ball,
)
from kq.track import (
    act,
    act_nat,
    compose,
    constant_homotopy,
    face_ball_of,
    glue,
    homotopic,
    obstruction,
    pullback,
    restrict,
    restrict_to_ball,
    tensor,
    zero_morphism,
)

from conftest import make_massey_algebra
from track_helpers import (
    enumerate_nat,
    is_chain_map,
    lift_from_point,
    opposite,
    paste,
    random_morphism,
    solve_chain_map,
)


@pytest.fixture
def qm():
    return make_massey_algebra()


def random_homotopy_over_interval(qm, src, dst, rng):
    """A morphism over the interval read as a homotopy between its endpoints."""
    return random_morphism(cube_ball(1), src, dst, qm, rng)


def test_paste_with_opposite_is_constant(qm):
    rng = random.Random(3)
    ball = cube_ball(1)
    L = GradedModule.of([("u", 2)])
    M = GradedModule.of([("w", 0)])
    f = random_morphism(ball, L, M, qm, rng)
    w = constant_homotopy(f)
    # perturb the sleeve to get a nonconstant self-homotopy
    from kq.oracle_support import EnumerationBudget
    from track_helpers import enumerate_self_homotopies

    for h in enumerate_self_homotopies(f, EnumerationBudget(2**10)):
        combined = paste(h, opposite(h))
        assert combined.mor.equal(constant_homotopy(f).mor)


def test_action_associativity_exact(qm):
    rng = random.Random(5)
    ball = cube_ball(2)
    L = GradedModule.of([("u", 3)])
    M = GradedModule.of([("w", 0)])
    F = random_morphism(ball, L, M, qm, rng)
    face = facet_ball(2, 0, 0)
    f_face = restrict_to_ball(F, face)
    from kq.oracle_support import EnumerationBudget
    from track_helpers import enumerate_self_homotopies

    wits = list(enumerate_self_homotopies(f_face, EnumerationBudget(2**12)))
    for g in wits[:3]:
        for h in wits[:3]:
            lhs = act(act(F, g), h)
            rhs = act(F, paste(h, g))
            assert lhs.equal(rhs)


def test_abelian_union_property(qm):
    # acting on one glued piece with the induced orientation equals acting on
    # the whole, at the level of obstruction classes
    rng = random.Random(9)
    nat = NatSystem(qm, 1)
    L = GradedModule.of([("t", 3)])
    M = GradedModule.of([("w", 0)])
    tball = corner_ball(2, 0)
    for trial in range(5):
        F = random_morphism(tball, L, M, qm, rng, boundary_zero=True)
        ob = obstruction(F, nat)
        for alpha in enumerate_nat(nat, L, M):
            expected = nat.add(ob, alpha)
            for pos in (0, 1):
                piece_ball = facet_ball(2, pos, 0)
                piece = restrict_to_ball(F, piece_ball)
                other_cells = facet_complex(2, 1 - pos, 0).cells
                other = restrict(F, other_cells)
                # induced orientation of the facet through slot pos
                top = piece_ball.basis.cells_of_dim(1)[0]
                o = -1 if (1 + pos) % 2 else 1
                vertex = face_ball_of(piece_ball, {"0" * 2})
                acted = act_nat(piece, alpha, vertex, orientation=o)
                glued = glue([acted, other], tball)
                assert obstruction(glued, nat).coords_key() == expected.coords_key()


def test_tensor_distributes_over_glue(qm):
    rng = random.Random(13)
    L2 = GradedModule.of([("q", 2)])
    L1 = GradedModule.of([("r", 1)])
    L0 = GradedModule.of([("s", 0)])
    g = random_morphism(cube_ball(1), L1, L0, qm, rng)
    tball = corner_ball(2, 0)
    f = random_morphism(tball, L2, L1, qm, rng)
    f1 = restrict(f, facet_complex(2, 0, 0).cells)
    f2 = restrict(f, facet_complex(2, 1, 0).cells)
    whole = tensor(g, f)
    p1 = tensor(g, f1)
    p2 = tensor(g, f2)
    merged = glue([p1, p2], whole.ball)
    assert merged.equal(whole)


def test_boundary_formula_dimension_zero(qm):
    """Comparison of the two halves of the boundary of a product of homotopies.

    For homotopies G: u ~ u' and F: v ~ v' over the interval, the half of the
    square boundary through (0,0) pulled back along a comparison map is
    homotopic rel endpoints to the half through (1,1).
    """
    rng = random.Random(17)
    L2 = GradedModule.of([("q", 2)])
    L1 = GradedModule.of([("r", 1)])
    L0 = GradedModule.of([("s", 0)])
    square = cube_ball(2)
    u_cells = {"1*", "*1", "10", "01", "11"}
    uop_cells = {"0*", "*0", "00", "01", "10"}
    u_ball = face_ball_of(square, u_cells, label="upper-half")
    uop_ball = face_ball_of(square, uop_cells, label="lower-half")
    h_u = solve_chain_map(
        u_ball.basis,
        uop_ball.basis,
        {"10": {"10": 1}, "01": {"01": 1}},
        qm.m,
    )
    assert h_u is not None
    assert is_chain_map(h_u, u_ball.basis, uop_ball.basis, qm.m)
    for trial in range(6):
        G = random_homotopy_over_interval(qm, L1, L0, rng)
        F = random_homotopy_over_interval(qm, L2, L1, rng)
        lower = glue(
            [
                tensor(restrict(G, {"0"}), F),  # 0 x I
                tensor(G, restrict(F, {"0"})),  # I x 0
            ],
            uop_ball,
        )
        upper = glue(
            [
                tensor(restrict(G, {"1"}), F),  # 1 x I
                tensor(G, restrict(F, {"1"})),  # I x 1
            ],
            u_ball,
        )
        lhs = pullback(lower, h_u, u_ball)
        assert lhs.check() == []
        w, info = homotopic(lhs, upper, rel=u_ball.boundary)
        assert w is not None
        assert w.mor.check() == []


def test_horizontal_composition_law(qm):
    """Composites of homotopies decompose as a pasting of one-sided whiskers."""
    rng = random.Random(37)
    L2 = GradedModule.of([("q", 2)])
    L1 = GradedModule.of([("r", 1)])
    L0 = GradedModule.of([("s", 0)])
    ball = cube_ball(1)
    for _ in range(5):
        H = random_morphism(ball, L1, L0, qm, rng)  # H: f ~ f'
        Hp = random_morphism(ball, L2, L1, qm, rng)  # H': g ~ g'
        both = compose(H, Hp)
        f = restrict(H, {"0"})
        gp = restrict(Hp, {"1"})
        whisker1 = compose(lift_from_point(ball, f_to_pt(f, qm)), Hp)
        whisker2 = compose(H, lift_from_point(ball, gp_to_pt(gp, qm)))
        pasted = paste(_as_witness(whisker1, qm), _as_witness(whisker2, qm))
        got = _witness_to_interval(pasted, qm)
        w, _ = homotopic(both, got, rel={"0", "1"})
        assert w is not None


def f_to_pt(f_restr, qm):
    from kq.cubical import point_ball
    from kq.track import pt_morphism

    cell = f_restr.ball.basis.cells()[0]
    entries = {}
    for i in range(f_restr.src.size):
        v = f_restr.value(cell, i)
        for (j, q), c in v.items():
            entries.setdefault((j, i), {})[q] = c
    return pt_morphism(point_ball(), qm, f_restr.src, f_restr.dst, entries)


gp_to_pt = f_to_pt


def _as_witness(mor, qm):
    """Read a morphism over the interval as a homotopy witness."""
    from kq.cubical import cylinder_ball, point_ball
    from kq.track import HomotopyWitness, TrackMorphism

    jball, cyl = cylinder_ball(point_ball())
    values = {}
    for i in range(mor.src.size):
        for cell, name in (("0", "-:"), ("1", "+:"), ("*", "e:")):
            v = mor.value(cell, i)
            if v:
                values[(name, i)] = dict(v)
    out = TrackMorphism(jball, mor.src, mor.dst, mor.Q, values)
    return HomotopyWitness(out, cyl, point_ball())


def _witness_to_interval(w, qm):
    from kq.track import TrackMorphism

    ball = cube_ball(1)
    values = {}
    for i in range(w.mor.src.size):
        for cell, name in (("0", "-:"), ("1", "+:"), ("*", "e:")):
            v = w.mor.value(name, i)
            if v:
                values[(cell, i)] = dict(v)
    return TrackMorphism(ball, w.mor.src, w.mor.dst, w.mor.Q, values)


def test_composition_over_cylinder_base(qm):
    # the induced diagonal on a collapsed cylinder supports the category laws
    rng = random.Random(43)
    from kq.cubical import cylinder_ball
    from kq.track import identity_morphism

    jball, _ = cylinder_ball(cube_ball(1))
    L2 = GradedModule.of([("q", 2)])
    L1 = GradedModule.of([("r", 1)])
    L0 = GradedModule.of([("s", 0)])
    for _ in range(5):
        f = random_morphism(jball, L2, L1, qm, rng)
        g = random_morphism(jball, L1, L0, qm, rng)
        h = random_morphism(jball, L0, GradedModule.of([("t", 0)]), qm, rng)
        assert f.check() == []
        assert compose(compose(h, g), f).equal(compose(h, compose(g, f)))
        assert compose(g, identity_morphism(jball, L1, qm)).equal(g)
        assert compose(identity_morphism(jball, L0, qm), g).equal(g)


def test_pullback_along_projection_gives_constant(qm):
    rng = random.Random(29)
    ball = cube_ball(1)
    L = GradedModule.of([("u", 2)])
    M = GradedModule.of([("w", 0)])
    f = random_morphism(ball, L, M, qm, rng)
    from kq.cubical import cylinder_ball

    jball, cyl = cylinder_ball(ball)
    proj = cyl.projection()
    pulled = pullback(f, proj, jball)
    # both ends carry f and the sleeves are zero
    assert f.values
    table = {}
    for (c, i), v in f.values.items():
        table[(cyl.bottom(c), i)] = v
        table[(cyl.top(c), i)] = v
    assert pulled.values == table
