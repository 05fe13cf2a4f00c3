"""Cubical cells, complexes, and chain-level coalgebra structure.

Cells of the N-cube are words over {0,1,*} of length N; the dimension of a
cell is its number of free (*) positions.  Complexes are downward closed
cell sets.  Every complex yields a based chain complex with the fixed
boundary convention

    d(c) = sum_j (-1)^(j-1) * ( c[i_j := 1] - c[i_j := 0] )

over the free positions i_1 < ... < i_d of c, together with the standard
cubical diagonal (front face tensor back face with shuffle signs), which is
coassociative, counital, and a chain map.  The diagonal of a cell is read
off its word on demand; no table of diagonals is built.

A ball is a based complex together with the boundary its cells determine:
the closure of the codimension-one cells that lie in exactly one top cell.
The standard balls (cube_ball, corner_ball) are built once per dimension and
shared: a ball and its chain basis are immutable values, and nothing may
change their cells or boundary rows after construction.

Chain-level cylinders (with a chosen collapsed subcomplex) and a face's
cylinder glued onto a ball are built here as generic based chain complexes,
so that homotopies and actions reduce to plain linear algebra.  A cylinder's
bottom, top and sleeve are its one naming rule: every cell is built through
them, and a cylinder cell's diagonal is read off its name, like a cube's.
"""

from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product as iproduct

from .errors import InternalInvariantError, UserInputError

FREE = "*"


# ---------------------------------------------------------------------------
# cells


def cell_dim(word):
    return word.count(FREE)


def free_positions(word):
    return [i for i, ch in enumerate(word) if ch == FREE]


def boundary_word(word):
    """Boundary chain of a cell as a list of (coefficient, face)."""
    out = []
    for j, i in enumerate(free_positions(word)):
        sign = -1 if j % 2 else 1
        out.append((sign, word[:i] + "1" + word[i + 1 :]))
        out.append((-sign, word[:i] + "0" + word[i + 1 :]))
    return out


def serre_diagonal_word(word):
    """Diagonal of a cell as a list of (sign, front, back).

    On the interval: diag(0) = 0 x 0, diag(1) = 1 x 1,
    diag(*) = * x 0  +  1 x *.  Higher cubes take the product formula with
    the graded interchange; the sign counts the transpositions of a free
    back-coordinate past a later free front-coordinate.
    """
    free = free_positions(word)
    d = len(free)
    out = []
    for mask in range(1 << d):
        stays = [free[t] for t in range(d) if mask & (1 << t)]
        moved = [free[t] for t in range(d) if not mask & (1 << t)]
        front = list(word)
        back = list(word)
        for i in stays:
            back[i] = "0"
        for i in moved:
            front[i] = "1"
        sign = 1
        for i in moved:
            for j in stays:
                if i < j:
                    sign = -sign
        out.append((sign, "".join(front), "".join(back)))
    return out


# ---------------------------------------------------------------------------
# complexes


@dataclass(frozen=True)
class CubicalComplex:
    """A downward closed set of cells of the N-cube."""

    ambient: int
    cells: frozenset

    @property
    def dim(self):
        return max((cell_dim(w) for w in self.cells), default=-1)

    def maximal_cells(self):
        non_max = {f for w in self.cells for _, f in boundary_word(w)}
        return sorted((w for w in self.cells if w not in non_max), key=lambda w: (cell_dim(w), w))

    def union(self, other):
        self._same_ambient(other)
        return CubicalComplex(self.ambient, self.cells | other.cells)

    def intersection(self, other):
        self._same_ambient(other)
        return CubicalComplex(self.ambient, self.cells & other.cells)

    def _same_ambient(self, other):
        if self.ambient != other.ambient:
            raise UserInputError("ambient cube dimensions differ")


def cube_complex(n):
    """The full n-cube."""
    if n == 0:
        return CubicalComplex(0, frozenset({""}))
    words = ("".join(w) for w in iproduct("01*", repeat=n))
    return CubicalComplex(n, frozenset(words))


def facet_complex(n, pos, digit):
    """The facet {x_pos = digit} of the n-cube; pos is 0-based."""
    full = cube_complex(n)
    d = str(digit)
    return CubicalComplex(n, frozenset(w for w in full.cells if w[pos] == d))


def corner_faces_complex(n, digit):
    """Union of the facets of the n-cube through the all-<digit> vertex.

    For digit 0 this is the union of all (n-1)-faces containing the origin.
    """
    full = cube_complex(n)
    d = str(digit)
    return CubicalComplex(n, frozenset(w for w in full.cells if d in w))


def is_regular_sequence(pieces):
    """Combinatorial check that a sequence of same-dimensional pieces glues.

    Each prefix union must meet the next piece in a nonempty pure complex of
    one dimension lower.  This is the engine's proxy for the regular sequence
    condition; it does not attempt homeomorphism checking.
    """
    if not pieces:
        return False
    d = pieces[0].dim
    if any(p.dim != d for p in pieces):
        return False
    acc = pieces[0]
    for nxt in pieces[1:]:
        inter = acc.intersection(nxt)
        if not inter.cells:
            return False
        if any(cell_dim(w) != d - 1 for w in inter.maximal_cells()):
            return False
        acc = acc.union(nxt)
    return True


# ---------------------------------------------------------------------------
# generic based chain complexes with optional diagonal


class ChainBasis:
    """A finite based chain complex; boundary coefficients are integers.

    diagonal, when present, is a function from a cell to its list of
    (sign, front, back); it is required to be coassociative, counital, and
    a chain map (checked in the test suite, not on every construction).
    A basis is an immutable value: dims and bnd are never changed after
    construction, so bases (and the balls carrying them) may be shared.
    """

    def __init__(self, dims, boundary, diagonal=None):
        self.dims = dict(dims)
        self.bnd = {c: {x: v for x, v in row.items() if v} for c, row in boundary.items()}
        self.diagonal = diagonal
        for c, row in self.bnd.items():
            for x in row:
                if x not in self.dims:
                    raise InternalInvariantError(f"boundary of {c!r} hits unknown cell {x!r}")

    def cells(self):
        return sorted(self.dims, key=lambda c: (self.dims[c], c))

    def cells_of_dim(self, k):
        return sorted(c for c, d in self.dims.items() if d == k)

    @property
    def max_dim(self):
        return max(self.dims.values(), default=-1)

    def dim(self, c):
        return self.dims[c]

    def boundary_of(self, c):
        return self.bnd.get(c, {})

    def diag_of(self, c):
        if self.diagonal is None:
            raise UserInputError("no diagonal available on this complex")
        if c not in self.dims:
            raise UserInputError(f"cell {c!r} is not in this complex")
        return self.diagonal(c)

    def is_closed(self, cells):
        cells = set(cells)
        return all(x in cells for c in cells for x in self.boundary_of(c))

    def subbasis(self, cells):
        cells = set(cells)
        if not self.is_closed(cells):
            raise UserInputError("cell set is not a subcomplex")
        dims = {c: self.dims[c] for c in cells}
        bnd = {c: self.boundary_of(c) for c in cells}
        return ChainBasis(dims, bnd, self.diagonal)


def complex_basis(complex_):
    dims = {w: cell_dim(w) for w in complex_.cells}
    bnd = {}
    for w in complex_.cells:
        acc = {}
        for coeff, f in boundary_word(w):
            acc[f] = acc.get(f, 0) + coeff
        bnd[w] = acc
    return ChainBasis(dims, bnd, serre_diagonal_word)


# ---------------------------------------------------------------------------
# balls


@dataclass(frozen=True)
class Ball:
    """A based chain complex whose boundary is derived from its cells.

    Like its basis, a ball is an immutable value; cube_ball and corner_ball
    return one shared instance per argument list.
    """

    basis: ChainBasis
    label: str = ""

    @cached_property
    def boundary(self):
        """The closure of the codimension-one cells that lie in exactly one top cell."""
        basis = self.basis
        faces = Counter(x for top in basis.cells_of_dim(basis.max_dim) for x in basis.boundary_of(top))
        out, stack = set(), [x for x, count in faces.items() if count == 1]
        while stack:
            c = stack.pop()
            if c not in out:
                out.add(c)
                stack.extend(basis.boundary_of(c))
        return frozenset(out)


def point_ball():
    return Ball(complex_basis(cube_complex(0)), "pt")


@cache
def cube_ball(n):
    return Ball(complex_basis(cube_complex(n)), f"I^{n}")


@cache
def corner_ball(n, digit=0):
    """The (n-1)-ball formed by the facets of the n-cube through a corner."""
    return Ball(complex_basis(corner_faces_complex(n, digit)), f"corner({n},{digit})")


def facet_ball(n, pos, digit):
    return Ball(complex_basis(facet_complex(n, pos, digit)), f"facet({n},{pos},{digit})")


def face_ball_of(ball, cells, label=""):
    """The face spanned by cells as a ball, whose derived boundary is the face's rim."""
    return Ball(ball.basis.subbasis(cells), label or "face")


def orientation_sign(ball, facet):
    """Incidence sign of a facet in the boundary of a single-top-cell ball.

    For the facet {x_j = delta} of the standard cube this is (-1)^(j+delta)
    with j counted from 1.  Raises if the ball has several top cells or the
    facet's top cell does not occur in the boundary of the ball's top cell.
    """
    tops = ball.basis.cells_of_dim(ball.basis.max_dim)
    if len(tops) != 1:
        raise UserInputError("orientation sign needs a unique top cell")
    ftops = facet.basis.cells_of_dim(facet.basis.max_dim)
    if len(ftops) != 1:
        raise UserInputError("facet must have a unique top cell")
    coeff = ball.basis.boundary_of(tops[0]).get(ftops[0], 0)
    if coeff not in (1, -1):
        raise UserInputError("not a facet of this ball")
    return coeff


# ---------------------------------------------------------------------------
# chain-level cylinders


class CylinderComplex:
    """Chain-level relative cylinder on a based complex.

    A base cell c has a bottom copy, a top copy and, unless c is collapsed, a
    sleeve of one dimension more; for a collapsed cell both end copies
    coincide and there is no sleeve.  bottom, top and sleeve are the
    cylinder's one naming rule: its cells, boundary rows and projection are
    built through them, and the diagonal of a cell is read off its name on
    demand, like a cube's.
    """

    def __init__(self, base, collapse):
        collapse = frozenset(collapse)
        if not base.is_closed(collapse):
            raise UserInputError("collapse set must be a subcomplex")
        if base.diagonal is not None:
            for c in collapse:
                for _, a, b in base.diag_of(c):
                    if a not in collapse or b not in collapse:
                        raise InternalInvariantError("collapse set is not a subcoalgebra")
        self.base = base
        self.collapse = collapse
        dims, bnd = {}, {}
        for c in base.cells():
            d, row = base.dim(c), base.boundary_of(c)
            for end in (self.bottom, self.top):
                dims[end(c)] = d
                bnd[end(c)] = {end(x): v for x, v in row.items()}
            if c not in collapse:
                dims[self.sleeve(c)] = d + 1
                sides = {self.sleeve(x): -v for x, v in row.items() if x not in collapse}
                bnd[self.sleeve(c)] = {self.top(c): 1, self.bottom(c): -1, **sides}
        self.basis = ChainBasis(dims, bnd, None if base.diagonal is None else self.diagonal)

    def bottom(self, c):
        return ("=:" if c in self.collapse else "-:") + c

    def top(self, c):
        return ("=:" if c in self.collapse else "+:") + c

    def sleeve(self, c):
        return None if c in self.collapse else "e:" + c

    def diagonal(self, cell):
        """The diagonal of a cylinder cell: an end copies its base cell's, a sleeve is swept from it."""
        c = cell[2:]
        terms = self.base.diag_of(c)
        if cell != self.sleeve(c):
            end = self.top if cell == self.top(c) else self.bottom
            return [(s, end(a), end(b)) for s, a, b in terms]
        rows = []
        for s, a, b in terms:
            if a not in self.collapse:
                rows.append((s, self.sleeve(a), self.bottom(b)))
            if b not in self.collapse:
                rows.append((s if self.base.dim(a) % 2 == 0 else -s, self.top(a), self.sleeve(b)))
        return rows

    def projection(self):
        out = {}
        for c in self.base.cells():
            for end in (self.bottom, self.top):
                out[end(c)] = {c: 1}
            if c not in self.collapse:
                out[self.sleeve(c)] = {}
        return out


def cylinder_ball(ball, rel=None):
    """J(ball) relative to rel (defaults to the ball's boundary)."""
    collapse = ball.boundary if rel is None else frozenset(rel)
    cyl = CylinderComplex(ball.basis, collapse)
    return Ball(cyl.basis, "J(" + ball.label + ")"), cyl


class AttachedCylinder:
    """A ball with a face's cylinder glued onto that face.

    cyl is a cylinder on a face of the ball (a subcomplex of its boundary).
    It must collapse exactly the face's rim, the boundary of the face as a
    ball: that is what makes action_map a chain map.  The glued complex
    identifies the cylinder's top end and its collapsed cells with the face
    in the ball; its bottom end and its sleeves, the cells in added, keep
    their cylinder names, and no other cell is added.
    """

    def __init__(self, ball, cyl):
        face = frozenset(cyl.base.dims)
        if not face <= ball.boundary:
            raise UserInputError("face must lie in the ball boundary")
        if not ball.basis.is_closed(face):
            raise UserInputError("face must be a subcomplex")
        if cyl.collapse != Ball(cyl.base).boundary:
            raise UserInputError("the cylinder must collapse exactly the rim of the face")
        self.ball = ball
        self.cyl = cyl
        self.added = frozenset(x for c in face - cyl.collapse for x in (cyl.bottom(c), cyl.sleeve(c)))
        self._face_cell = {cyl.top(c): c for c in face}
        dims = dict(ball.basis.dims)
        bnd = dict(ball.basis.bnd)
        for x in cyl.basis.cells():
            if x in self.added:
                dims[x] = cyl.basis.dim(x)
                bnd[x] = {self.glued(y): v for y, v in cyl.basis.boundary_of(x).items()}
        self.basis = ChainBasis(dims, bnd)

    def glued(self, x):
        """The name of a cylinder cell in the glued complex."""
        return self._face_cell.get(x, x)

    def action_map(self):
        """Chain map from the ball into the glued complex: the identity on the
        rest of the boundary, sweeping the face to the cylinder's bottom end."""
        cyl = self.cyl
        phi = {}
        for c in self.ball.basis.cells():
            if c in cyl.base.dims:
                phi[c] = {self.glued(cyl.bottom(c)): 1}
            else:
                row = {c: 1}
                for x, v in self.ball.basis.boundary_of(c).items():
                    if x in cyl.base.dims and x not in cyl.collapse:
                        row[cyl.sleeve(x)] = row.get(cyl.sleeve(x), 0) - v
                phi[c] = row
        return phi
