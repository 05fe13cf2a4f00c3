"""cubical.CylinderComplex against the construction it replaced.

The cylinder now builds every cell through bottom, top and sleeve and reads
a cell's diagonal off its name on demand.  The reference below is the
earlier construction: collapsed and free cells written out by their name
prefixes, and a table of every cell's diagonal filled at construction.  On
J(B) for cube_ball(0..3), corner_ball(2..3, 0|1) and every facet ball of
dimension up to 3, relative to the ball's boundary and to nothing, both
must give the same cells with the same dimensions, the same boundary rows,
the same projection and, cell by cell, the same diagonal list in the same
order.
"""

import pytest

from kq.cubical import ChainBasis, CylinderComplex, corner_ball, cube_ball, facet_ball


class ReferenceCylinder:
    """The relative cylinder with its names spelled out and its diagonals tabulated."""

    def __init__(self, base, collapse):
        self.base = base
        self.collapse = collapse = frozenset(collapse)
        dims, bnd, diag = {}, {}, {}
        for c in base.cells():
            d, row = base.dim(c), base.boundary_of(c)
            if c in collapse:
                dims["=:" + c] = d
                bnd["=:" + c] = {"=:" + x: v for x, v in row.items()}
            else:
                dims["-:" + c] = d
                dims["+:" + c] = d
                dims["e:" + c] = d + 1
                bnd["-:" + c] = {self.bottom(x): v for x, v in row.items()}
                bnd["+:" + c] = {self.top(x): v for x, v in row.items()}
                sleeve = {self.top(c): 1, self.bottom(c): -1}
                for x, v in row.items():
                    if x not in collapse:
                        sleeve["e:" + x] = sleeve.get("e:" + x, 0) - v
                bnd["e:" + c] = sleeve
        for c in base.cells():
            terms = base.diag_of(c)
            if c in collapse:
                diag["=:" + c] = [(s, "=:" + a, "=:" + b) for s, a, b in terms]
                continue
            diag["-:" + c] = [(s, self.bottom(a), self.bottom(b)) for s, a, b in terms]
            diag["+:" + c] = [(s, self.top(a), self.top(b)) for s, a, b in terms]
            rows = []
            for s, a, b in terms:
                if a not in collapse:
                    rows.append((s, "e:" + a, self.bottom(b)))
                if b not in collapse:
                    rows.append((s if base.dim(a) % 2 == 0 else -s, self.top(a), "e:" + b))
            diag["e:" + c] = rows
        self.basis = ChainBasis(dims, bnd, diag.__getitem__)

    def bottom(self, c):
        return ("=:" if c in self.collapse else "-:") + c

    def top(self, c):
        return ("=:" if c in self.collapse else "+:") + c

    def projection(self):
        out = {}
        for c in self.base.cells():
            if c in self.collapse:
                out["=:" + c] = {c: 1}
            else:
                out["-:" + c] = {c: 1}
                out["+:" + c] = {c: 1}
                out["e:" + c] = {}
        return out


BALLS = (
    [cube_ball(n) for n in range(4)]
    + [corner_ball(n, digit) for n in (2, 3) for digit in (0, 1)]
    + [facet_ball(n, pos, digit) for n in range(1, 5) for pos in range(n) for digit in (0, 1)]
)


def _ordered(table):
    """A table of rows as nested item lists, so that equal means equal in insertion order too."""
    return [(c, list(row.items())) for c, row in table.items()]


@pytest.mark.parametrize("rel", ["boundary", "empty"])
@pytest.mark.parametrize("ball", BALLS, ids=[b.label for b in BALLS])
def test_cylinder_matches_the_reference_construction(ball, rel):
    collapse = ball.boundary if rel == "boundary" else frozenset()
    got = CylinderComplex(ball.basis, collapse)
    want = ReferenceCylinder(ball.basis, collapse)
    assert list(got.basis.dims.items()) == list(want.basis.dims.items())
    assert _ordered(got.basis.bnd) == _ordered(want.basis.bnd)
    assert _ordered(got.projection()) == _ordered(want.projection())
    for c in want.basis.cells():
        assert got.basis.diag_of(c) == want.basis.diag_of(c), c
    for c in ball.basis.cells():
        assert (got.bottom(c), got.top(c)) == (want.bottom(c), want.top(c))
        assert got.sleeve(c) == (None if c in collapse else "e:" + c)
