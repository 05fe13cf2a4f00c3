"""track.act, a pullback through the witness's own cylinder, against the sweep it replaced.

act glues the witness's cylinder onto the face (cubical.AttachedCylinder)
and pulls the joined value table back along the sweep of the face to the
cylinder's bottom end.  The reference below is the earlier construction: a
second cylinder with its own far end ("0:" cells) built beside the ball, and
the sweep evaluated by hand on cell-name prefixes.  On every boundary face
of cube_ball(1..3) and corner_ball(2..3), for random morphisms acted on by
sigma_homotopy witnesses, random self-homotopies and homotopies from a
random morphism that agrees on the rim, both must give the same morphism
exactly: the same value table, the same taint and the same ball.
"""

import random

import pytest

from kq.chain_algebra import GradedModule, NatSystem, vec_add
from kq.cubical import ChainBasis, corner_ball, cube_ball, cylinder_ball
from kq.documents import parse_algebra
from kq.errors import UserInputError
from kq.track import (
    HomotopyWitness,
    TrackMorphism,
    act,
    homotopic,
    restrict_to_ball,
    sigma_homotopy,
    solve_for_values,
)

from test_closed_form import universal
from track_helpers import (
    boundary_faces,
    enumerate_nat,
    opposite_face,
    random_choices,
    random_morphism,
    self_homotopy_space,
)

BALLS = [cube_ball(1), cube_ball(2), cube_ball(3), corner_ball(2), corner_ball(3)]


# ---------------------------------------------------------------------------
# the reference: a second cylinder on the face, swept by hand


class ReferenceAttachedCylinder:
    """A ball with a cylinder glued onto one boundary face.

    Carries the deterministic chain map from the ball into the glued complex
    that is the identity on the rest of the boundary and sweeps the face
    across the cylinder:  phi(c) = c - sleeve(face part of dc), phi(a) = far
    copy of a for face cells a.
    """

    def __init__(self, ball, face_cells):
        face_cells = frozenset(face_cells)
        if not face_cells <= ball.boundary:
            raise UserInputError("face must lie in the ball boundary")
        if not ball.basis.is_closed(face_cells):
            raise UserInputError("face must be a subcomplex")
        self.ball = ball
        self.face = face_cells
        # rim = face cells shared with the closure of the opposite boundary;
        # the cylinder over the rim is collapsed
        self.rim = face_cells & opposite_face(ball, face_cells)
        self.face_interior = frozenset(c for c in face_cells if c not in self.rim)
        dims = dict(ball.basis.dims)
        bnd = {c: dict(ball.basis.boundary_of(c)) for c in ball.basis.dims}
        for a in self.face_interior:
            d = ball.basis.dim(a)
            dims["0:" + a] = d
            dims["e:" + a] = d + 1
            row0 = {}
            for x, v in ball.basis.boundary_of(a).items():
                row0[self.far(x)] = row0.get(self.far(x), 0) + v
            bnd["0:" + a] = row0
            rowe = {a: 1, "0:" + a: -1}
            for x, v in ball.basis.boundary_of(a).items():
                if x in self.face_interior:
                    rowe["e:" + x] = rowe.get("e:" + x, 0) - v
            bnd["e:" + a] = rowe
        self.basis = ChainBasis(dims, bnd)

    def far(self, a):
        return "0:" + a if a in self.face_interior else a

    def action_map(self):
        phi = {}
        for c in self.ball.basis.cells():
            if c in self.face:
                phi[c] = {self.far(c): 1}
            else:
                row = {c: 1}
                for x, v in self.ball.basis.boundary_of(c).items():
                    if x in self.face_interior:
                        row["e:" + x] = row.get("e:" + x, 0) - v
                phi[c] = row
        return phi


def reference_act(F, witness, face_cells):
    """Glue a cylinder carrying the witness onto the face and sweep across it."""
    att = ReferenceAttachedCylinder(F.ball, face_cells)
    cyl = witness.cyl
    base_cells = set(cyl.base.dims)
    if base_cells != set(face_cells):
        raise UserInputError("witness base must be the face being acted on")
    for c in face_cells:
        for i in range(F.src.size):
            if not (witness.mor.value(cyl.top(c), i) == F.value(c, i)):
                raise UserInputError("witness top face must equal the restriction of F")
    phi = att.action_map()
    values = {}
    flag = F.tainted or witness.mor.tainted
    for c in F.ball.basis.cells():
        for i in range(F.src.size):
            if c in att.face_interior:
                acc = witness.mor.value(cyl.bottom(c), i)
            else:
                row = phi[c]
                acc = {}
                for x, coeff in row.items():
                    if x.startswith("e:"):
                        acc = vec_add(acc, witness.mor.value("e:" + x[2:], i), F.Q.m, scale=coeff)
                    elif x.startswith("0:"):
                        acc = vec_add(acc, witness.mor.value(cyl.bottom(x[2:]), i), F.Q.m, scale=coeff)
                    else:
                        acc = vec_add(acc, F.value(x, i), F.Q.m, scale=coeff)
            if acc:
                values[(c, i)] = acc
    return TrackMorphism(F.ball, F.src, F.dst, F.Q, values, flag)


# ---------------------------------------------------------------------------
# witnesses


def _universal(order, modulus):
    algebra, violations = parse_algebra(universal.algebra_doc(order, modulus, random.Random(order)))
    assert violations == []
    return algebra


def _agreeing_on_rim(f, rng):
    """A random morphism over f's ball with f's values on the ball's boundary (the rim)."""
    prescribed = {(c, i): f.value(c, i) for c in f.ball.boundary for i in range(f.src.size)}
    unknown = [c for c in f.ball.basis.cells() if c not in f.ball.boundary]
    res, cert = solve_for_values(f.ball, f.Q, f.src, f.dst, prescribed, unknown)
    assert res is not None, cert
    return res.instantiate(random_choices(res, rng)).morphism


def _witnesses(F, face, nat, rng):
    """sigma_homotopy witnesses for every alpha, random self-homotopies, and homotopies g ~ F|face."""
    f_face = restrict_to_ball(F, face)
    for alpha in enumerate_nat(nat, F.src, F.dst):
        for orientation in (1, -1):
            yield sigma_homotopy(f_face, alpha, orientation)
    res, _, cyl = self_homotopy_space(f_face)
    for _ in range(2):
        yield HomotopyWitness(res.instantiate(random_choices(res, rng)).morphism, cyl)
    for _ in range(2):
        w, _ = homotopic(_agreeing_on_rim(f_face, rng), f_face)
        if w is not None:
            yield w


def _same(got, want):
    assert got.ball is want.ball
    assert (got.src, got.dst, got.Q) == (want.src, want.dst, want.Q)
    assert got.values == want.values
    assert got.tainted == want.tainted


@pytest.mark.parametrize("modulus", [2, 4])
@pytest.mark.parametrize("ball", BALLS, ids=[b.label for b in BALLS])
def test_act_equals_reference_on_every_boundary_face(ball, modulus):
    dim = ball.basis.max_dim
    Q = _universal(dim, modulus)
    nat = NatSystem(Q, dim)
    L = GradedModule.of([("t", dim + 2)])
    M = GradedModule.of([("w", 0)])
    rng = random.Random(97 * dim + modulus)
    compared = 0
    for _ in range(2):
        F = random_morphism(ball, L, M, Q, rng)
        for face in boundary_faces(ball):
            face_cells = set(face.basis.dims)
            for w in _witnesses(F, face, nat, rng):
                got = act(F, w)
                _same(got, reference_act(F, w, face_cells))
                assert got.check() == []
                compared += 1
    assert compared >= 2 * len(boundary_faces(ball)) * (2 * modulus + 2)


def test_act_rejects_what_the_reference_rejects():
    Q = _universal(2, 2)
    ball = cube_ball(2)
    L = GradedModule.of([("t", 4)])
    M = GradedModule.of([("w", 0)])
    F = random_morphism(ball, L, M, Q, random.Random(5))
    face, other = boundary_faces(ball)[:2]
    w = sigma_homotopy(restrict_to_ball(F, face), NatSystem(Q, 2).zero(L, M))
    # act reads the face off the witness, so only the reference can be handed another
    with pytest.raises(UserInputError, match="witness base must be the face"):
        reference_act(F, w, set(other.basis.dims))
    G = random_morphism(ball, L, M, Q, random.Random(6))
    with pytest.raises(UserInputError, match="witness top face must equal"):
        reference_act(G, w, set(face.basis.dims))
    with pytest.raises(UserInputError, match="witness top face must equal"):
        act(G, w)


def test_act_rejects_a_witness_not_relative_to_the_rim():
    # the sweep is a chain map only when the cylinder collapses the face's rim
    Q = _universal(2, 2)
    ball = cube_ball(2)
    L = GradedModule.of([("t", 4)])
    M = GradedModule.of([("w", 0)])
    F = random_morphism(ball, L, M, Q, random.Random(7))
    face = boundary_faces(ball)[0]
    f_face = restrict_to_ball(F, face)
    assert face.boundary
    w, _ = homotopic(f_face, f_face, rel=frozenset())
    assert w.cyl.collapse == frozenset()
    with pytest.raises(UserInputError, match="rim"):
        act(F, w)
    assert cylinder_ball(face)[1].collapse == face.boundary
