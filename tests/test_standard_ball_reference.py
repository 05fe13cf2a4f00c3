"""The standard balls and the face injection against the constructions they replaced.

The point ball is now cube_ball(0), a facet or corner ball is a face ball of
the shared cube_ball(n), and track.inject_cubical is a pullback along the
inverse of the face inclusion.  The references below are the earlier
constructions: each ball built from its own cell set, with every boundary
row summed face by face, and the injection renaming cells and values by
hand.  For the point ball, every facet ball of dimension up to 4 and every
corner ball of dimension up to 4, both must give the same cells with the
same dimensions, the same boundary rows, the same derived boundary and, cell
by cell, the same diagonal list in the same order.  For random morphisms
over cube_ball(0..2) and corner_ball(2, 0), tainted or not, the injection at
every position and digit must give the same values, ball cells, boundary
rows, derived boundary and taint.
"""

import random
from itertools import product as iproduct

import pytest

from conftest import make_massey_algebra
from kq.chain_algebra import GradedModule
from kq.cubical import (
    Ball,
    ChainBasis,
    boundary_word,
    cell_dim,
    corner_ball,
    cube_ball,
    facet_ball,
    point_ball,
    serre_diagonal_word,
)
from kq.track import TrackMorphism, inject_cubical
from track_helpers import random_morphism


def reference_basis(cells):
    """The chain complex of a cell set, each boundary row summed face by face."""
    dims = {w: cell_dim(w) for w in cells}
    bnd = {}
    for w in cells:
        acc = {}
        for coeff, f in boundary_word(w):
            acc[f] = acc.get(f, 0) + coeff
        bnd[w] = acc
    return ChainBasis(dims, bnd, serre_diagonal_word)


def reference_cube_cells(n):
    if n == 0:
        return frozenset({""})
    return frozenset("".join(w) for w in iproduct("01*", repeat=n))


def reference_point_ball():
    return Ball(reference_basis(reference_cube_cells(0)), "pt")


def reference_facet_ball(n, pos, digit):
    cells = {w for w in reference_cube_cells(n) if w[pos] == str(digit)}
    return Ball(reference_basis(cells), f"facet({n},{pos},{digit})")


def reference_corner_ball(n, digit):
    cells = {w for w in reference_cube_cells(n) if str(digit) in w}
    return Ball(reference_basis(cells), f"corner({n},{digit})")


def reference_inject_cubical(f, position, digit, ambient_ball):
    """Pushforward along the face inclusion inserting a fixed digit."""
    d = str(digit)
    values = {}
    cells = []
    for (c, i), v in f.values.items():
        values[(c[:position] + d + c[position:], i)] = v
    for c in f.ball.basis.cells():
        cells.append(c[:position] + d + c[position:])
    sub = Ball(ambient_ball.basis.subbasis(cells), f"{f.ball.label}@{position}:{digit}")
    return TrackMorphism(sub, f.src, f.dst, f.Q, values, f.tainted)


CASES = (
    [("point", point_ball(), reference_point_ball())]
    + [
        (f"facet({n},{pos},{digit})", facet_ball(n, pos, digit), reference_facet_ball(n, pos, digit))
        for n in range(1, 5)
        for pos in range(n)
        for digit in (0, 1)
    ]
    + [(f"corner({n},{digit})", corner_ball(n, digit), reference_corner_ball(n, digit)) for n in range(1, 5) for digit in (0, 1)]
)


@pytest.mark.parametrize("new,ref", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_standard_ball_matches_reference(new, ref):
    assert new.basis.dims == ref.basis.dims
    assert new.basis.bnd == ref.basis.bnd
    assert new.boundary == ref.boundary
    for c in ref.basis.cells():
        assert new.basis.diag_of(c) == ref.basis.diag_of(c)
    if ref.label != "pt":  # the point ball is cube_ball(0), labelled I^0
        assert new.label == ref.label


BASES = [("I0", cube_ball(0), 1), ("I1", cube_ball(1), 2), ("I2", cube_ball(2), 3), ("T1", corner_ball(2, 0), 3)]


@pytest.mark.parametrize("base,ambient", [(b, cube_ball(n)) for _, b, n in BASES], ids=[name for name, _, _ in BASES])
def test_inject_cubical_matches_reference(base, ambient):
    q = make_massey_algebra()
    L = GradedModule.of([("u", 2), ("v", 3)])
    M = GradedModule.of([("w", 0)])
    rng = random.Random(17)
    for tainted in (False, True):
        for _ in range(3):
            g = random_morphism(base, L, M, q, rng)
            f = TrackMorphism(g.ball, g.src, g.dst, g.Q, g.values, tainted)
            for position in range(len(base.basis.cells()[0]) + 1):
                for digit in (0, 1):
                    new = inject_cubical(f, position, digit, ambient)
                    ref = reference_inject_cubical(f, position, digit, ambient)
                    assert new.values == ref.values
                    assert new.ball.basis.dims == ref.ball.basis.dims
                    assert new.ball.basis.bnd == ref.ball.basis.bnd
                    assert new.ball.boundary == ref.ball.boundary
                    assert new.ball.label == ref.ball.label
                    assert new.tainted == ref.tainted == tainted
                    assert (new.src, new.dst, new.Q) == (ref.src, ref.dst, ref.Q)
