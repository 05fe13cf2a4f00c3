"""solve_dense, factor and the presentations against the four-transform Smith solver.

solve_dense reads its answer off the Howell form of the graph {(Ax, x)}, and
quotient_presentation runs only the row half of the Smith reduction.  The
reference below is the earlier solver, which ran the full reduction
(U, D, V and both inverses) for both.  Solution sets, representatives,
coordinate maps and pivots must agree exactly.  One factor of A must solve
every right-hand side as the reference does, kernel basis order included,
and subquotient_presentation, which keeps the factor of its embedding, is
checked against the earlier code that solved the embedding afresh each time.
"""

import functools
import random
from dataclasses import dataclass, field

import pytest

import kq.exact_linalg as el
from kq.errors import UserInputError
from kq.exact_linalg import (
    AffineSolutionSet,
    Presentation,
    combine,
    howell_form,
    howell_reduce,
    padic_val,
    prime_power,
)

MODULI = [2, 3, 4, 5, 8, 9, 16, 25, 27]


# ---------------------------------------------------------------------------
# the reference: full dense Smith reduction


def _swap_rows(M, a, b):
    M[a], M[b] = M[b], M[a]


def _swap_cols(M, a, b):
    for row in M:
        row[a], row[b] = row[b], row[a]


def _snf_dense(A, rows, cols, m):
    """Dense SNF over Z/p^k.

    Returns (U, D, V, Uinv, Vinv) as dense lists with U*A*V = D, the diagonal
    of D consisting of p-powers in nondecreasing valuation.
    """
    p, k = prime_power(m)
    D = [[A[i][j] % m for j in range(cols)] for i in range(rows)]
    U = [[int(i == j) for j in range(rows)] for i in range(rows)]
    Ui = [[int(i == j) for j in range(rows)] for i in range(rows)]
    V = [[int(i == j) for j in range(cols)] for i in range(cols)]
    Vi = [[int(i == j) for j in range(cols)] for i in range(cols)]

    t = 0
    while t < min(rows, cols):
        best = None  # (val, i, j)
        for i in range(t, rows):
            for j in range(t, cols):
                v = D[i][j]
                if v:
                    val = padic_val(v, p, k)
                    if best is None or val < best[0]:
                        best = (val, i, j)
                        if val == 0:
                            break
            if best is not None and best[0] == 0:
                break
        if best is None:
            break
        val, pi, pj = best
        if pi != t:
            _swap_rows(D, t, pi)
            _swap_rows(U, t, pi)
            _swap_cols(Ui, t, pi)
        if pj != t:
            _swap_cols(D, t, pj)
            _swap_cols(V, t, pj)
            _swap_rows(Vi, t, pj)
        # normalize the unit part so the pivot becomes exactly p**val
        piv = D[t][t]
        w = piv // (p**val)
        winv = pow(w, -1, m)
        for j in range(cols):
            D[t][j] = (D[t][j] * winv) % m
        for j in range(rows):
            U[t][j] = (U[t][j] * winv) % m
        for i in range(rows):
            Ui[i][t] = (Ui[i][t] * w) % m
        pv = p**val
        # clear the pivot column; exact division since val is minimal
        for i in range(rows):
            if i == t or D[i][t] == 0:
                continue
            q = D[i][t] // pv
            for j in range(cols):
                D[i][j] = (D[i][j] - q * D[t][j]) % m
            for j in range(rows):
                U[i][j] = (U[i][j] - q * U[t][j]) % m
            for ii in range(rows):
                Ui[ii][t] = (Ui[ii][t] + q * Ui[ii][i]) % m
        # clear the pivot row
        for j in range(cols):
            if j == t or D[t][j] == 0:
                continue
            q = D[t][j] // pv
            for i in range(rows):
                D[i][j] = (D[i][j] - q * D[i][t]) % m
            for i in range(cols):
                V[i][j] = (V[i][j] - q * V[i][t]) % m
            for jj in range(cols):
                Vi[t][jj] = (Vi[t][jj] + q * Vi[j][jj]) % m
        t += 1
    return U, D, V, Ui, Vi


@functools.lru_cache(maxsize=64)
def _snf_of(A, cols, m):
    """_snf_dense of a tuple of rows, kept for the next right-hand side of the same A; read only."""
    return _snf_dense(A, len(A), cols, m)


def solve_dense(A, b, m, cols=None):
    """Solve A x = b over Z/m for dense A; returns AffineSolutionSet or None.

    cols must be passed explicitly when A has no rows.
    """
    rows = len(A)
    if cols is None:
        cols = len(A[0]) if rows else 0
    if len(b) != rows:
        raise UserInputError("dimension mismatch in solve")
    if rows == 0:
        basis = howell_form([tuple(int(i == j) for i in range(cols)) for j in range(cols)], cols, m)
        return AffineSolutionSet(tuple([0] * cols), basis, m)
    if cols == 0:
        if any(x % m for x in b):
            return None
        return AffineSolutionSet((), (), m)
    p, k = prime_power(m)
    U, D, V, _, _ = _snf_of(tuple(map(tuple, A)), cols, m)
    ub = [sum(U[i][j] * b[j] for j in range(rows)) % m for i in range(rows)]
    npiv = 0
    while npiv < min(rows, cols) and D[npiv][npiv]:
        npiv += 1
    for i in range(npiv, rows):
        if ub[i] % m:
            return None
    y = [0] * cols
    kernel = []
    for t in range(npiv):
        a = padic_val(D[t][t], p, k)
        if ub[t] % (p**a):
            return None
        y[t] = (ub[t] // (p**a)) % (p ** (k - a))
        if a > 0:
            kernel.append([(p ** (k - a)) if i == t else 0 for i in range(cols)])
    for j in range(npiv, cols):
        kernel.append([int(i == j) for i in range(cols)])
    x = [sum(V[i][j] * y[j] for j in range(cols)) % m for i in range(cols)]
    kern_vecs = [
        tuple(sum(V[i][j] * g[j] for j in range(cols)) % m for i in range(cols))
        for g in kernel
    ]
    basis = howell_form(kern_vecs, cols, m)
    part = howell_reduce(x, basis, m)
    return AffineSolutionSet(part, basis, m)


def quotient_presentation(ambient_rank, relation_vectors, m):
    """Present (Z/m)^ambient_rank modulo the span of the relation vectors."""
    p, k = prime_power(m)
    rels = [list(v) for v in relation_vectors]
    if ambient_rank == 0:
        return Presentation(m, 0, (), (), ())
    if not rels:
        rels = [[0] * ambient_rank]
    R = [[rels[g][i] % m for g in range(len(rels))] for i in range(ambient_rank)]
    U, D, V, Ui, Vi = _snf_dense(R, ambient_rank, len(rels), m)
    order_exps = []
    reps = []
    proj = []
    for i in range(ambient_rank):
        d = D[i][i] if i < min(ambient_rank, len(rels)) else 0
        a = padic_val(d, p, k) if d else k
        if a == 0:
            continue
        order_exps.append(a)
        reps.append(tuple(Ui[t][i] for t in range(ambient_rank)))
        proj.append(tuple(U[i][t] for t in range(ambient_rank)))
    return Presentation(m, ambient_rank, tuple(order_exps), tuple(reps), tuple(proj))


# the earlier subquotient presentation, which kept the sub-generators and
# solved against them in every coords call; the class is renamed so that it
# does not shadow kq's Presentation, and solve_dense and quotient_presentation
# are the references above


@dataclass(frozen=True)
class SubPresentation:
    """A finite Z/p^k module given by generators inside an ambient free module.

    reps[i] is an ambient vector representing the i-th generator, whose
    annihilator is p**order_exps[i].  coords() projects an ambient vector
    (assumed to represent a class) to canonical coordinates.
    """

    m: int
    ambient_rank: int
    order_exps: tuple
    reps: tuple
    _proj: tuple = field(repr=False)  # rows of the coordinate map
    _embed: tuple = field(repr=False, default=None)  # sub-generators, or None

    @property
    def rank(self):
        return len(self.order_exps)

    @property
    def size(self):
        p, _ = prime_power(self.m)
        n = 1
        for e in self.order_exps:
            n *= p**e
        return n

    def coords(self, vec):
        p, k = prime_power(self.m)
        if self._embed is not None:
            sol = solve_dense(
                [[self._embed[g][i] for g in range(len(self._embed))] for i in range(self.ambient_rank)],
                list(vec),
                self.m,
            )
            if sol is None:
                raise UserInputError("vector does not lie in the presented submodule")
            vec = sol.particular
        out = []
        for row, e in zip(self._proj, self.order_exps):
            c = sum(r * v for r, v in zip(row, vec)) % self.m
            out.append(c % (p**e))
        return tuple(out)

    def element(self, coords):
        return combine([0] * self.ambient_rank, coords, self.reps, self.m)


def subquotient_presentation(sub_gens, relation_vectors, ambient_rank, m):
    """Present span(sub_gens)/span(relation_vectors) inside (Z/m)^ambient_rank.

    Relations must lie in the span of the sub-generators; class coordinates of
    an ambient vector are computed by first expressing it in the sub-generators.
    """
    subs = [tuple(x % m for x in g) for g in sub_gens]
    subs = [g for g in subs if any(g)]
    if not subs:
        return SubPresentation(m, ambient_rank, (), (), (), _embed=None)
    s = len(subs)
    K = [[subs[g][i] for g in range(s)] for i in range(ambient_rank)]
    inner_rels = []
    ker = solve_dense(K, [0] * ambient_rank, m)
    inner_rels.extend(list(v) for v in ker.kernel_basis)
    for b in relation_vectors:
        sol = solve_dense(K, list(b), m)
        if sol is None:
            raise UserInputError("relation vector outside the submodule span")
        inner_rels.append(list(sol.particular))
    inner = quotient_presentation(s, inner_rels, m)
    reps = tuple(combine([0] * ambient_rank, r, subs, m) for r in inner.reps)
    return SubPresentation(m, ambient_rank, inner.order_exps, reps, inner._proj, _embed=tuple(subs))


# ---------------------------------------------------------------------------
# random inputs


def _entry(rng, m, density):
    if rng.random() >= density:
        return 0
    # small multiples of p often, so that non-unit pivots occur
    p, _ = prime_power(m)
    return rng.choice([rng.randrange(m), p * rng.randrange(m) % m])


def _matrix(rng, m, rows, cols, density):
    A = [[_entry(rng, m, density) for _ in range(cols)] for _ in range(rows)]
    # some rows all zero
    for i in range(rows):
        if rng.random() < 0.2:
            A[i] = [0] * cols
    return A


def _system(rng, m, rows, cols, density=None):
    """A, b with b in the image half of the time and all-zero rows mixed in."""
    A = _matrix(rng, m, rows, cols, rng.choice([0.3, 0.7, 1.0]) if density is None else density)
    if rng.random() < 0.5:
        x0 = [rng.randrange(m) for _ in range(cols)]
        b = [sum(a * x for a, x in zip(row, x0)) % m for row in A]
    else:
        b = [rng.randrange(m) for _ in range(rows)]
    return A, b


def _right_hand_sides(rng, A, m, cols):
    """At least five b for A: zero, two images, a random one, and one off the image where possible.

    Where A has a zero row the last b is nonzero there; otherwise it is an
    image plus a unit vector.  A random b is mostly inconsistent.
    """
    rows = len(A)

    def image():
        x = [rng.randrange(m) for _ in range(cols)]
        return [sum(a * t for a, t in zip(row, x)) % m for row in A]

    out = [[0] * rows, image(), image(), [rng.randrange(m) for _ in range(rows)]]
    if rows:
        b = image()
        zero = [i for i, row in enumerate(A) if not any(x % m for x in row)]
        i = rng.choice(zero) if zero else rng.randrange(rows)
        b[i] = (b[i] + rng.randrange(1, m)) % m
        out.append(b)
    else:
        out.append([])
    return out


def _check_factor(A, b, m, cols, seed):
    """One factor of A solves b and five more right-hand sides as the reference does."""
    fac = el.factor(A, m, cols)
    rng = random.Random(seed)
    for rhs in [b] + _right_hand_sides(rng, A, m, cols):
        assert fac.solve(rhs) == solve_dense(A, rhs, m, cols=cols)
    with pytest.raises(UserInputError, match="^dimension mismatch in solve$"):
        fac.solve(b + [0])


@pytest.mark.parametrize("m", MODULI)
def test_solve_matches_reference_on_random_systems(m):
    rng = random.Random(4000 + m)
    for t in range(250):
        rows = rng.randrange(0, 9)
        cols = rng.randrange(0, 8)
        A, b = _system(rng, m, rows, cols)
        assert el.solve_dense(A, b, m, cols=cols) == solve_dense(A, b, m, cols=cols)
        if rows:
            assert el.solve_dense(A, b, m) == solve_dense(A, b, m)
        _check_factor(A, b, m, cols, 40000 * m + t)


@pytest.mark.parametrize("m", MODULI)
def test_solve_matches_reference_on_edge_shapes(m):
    rng = random.Random(5000 + m)
    # no rows: every vector solves
    for cols in range(4):
        assert el.solve_dense([], [], m, cols=cols) == solve_dense([], [], m, cols=cols)
        _check_factor([], [], m, cols, 50000 * m + cols)
    # no columns: solvable exactly when b is zero
    for rows in range(1, 4):
        for b in ([0] * rows, [0] * (rows - 1) + [1]):
            A = [[] for _ in range(rows)]
            assert el.solve_dense(A, b, m, cols=0) == solve_dense(A, b, m, cols=0)
            _check_factor(A, b, m, 0, 51000 * m + rows)
    # all-zero rows with a nonzero right-hand side
    for t in range(20):
        A, _ = _system(rng, m, 4, 3)
        A[rng.randrange(4)] = [0, 0, 0]
        b = [rng.randrange(m) for _ in range(4)]
        b[next(i for i, row in enumerate(A) if not any(row))] = rng.randrange(1, m)
        assert el.solve_dense(A, b, m) is None
        assert solve_dense(A, b, m) is None
        _check_factor(A, b, m, 3, 52000 * m + t)
    # the zero matrix
    A = [[0] * 3 for _ in range(3)]
    assert el.solve_dense(A, [0, 0, 0], m) == solve_dense(A, [0, 0, 0], m)
    _check_factor(A, [0, 0, 0], m, 3, 53000 * m)


@pytest.mark.parametrize("m", [2, 4, 9, 25])
def test_solve_matches_reference_on_tall_sparse_systems(m):
    rng = random.Random(6000 + m)
    solvable = 0
    for t, (rows, cols) in enumerate(((300, 3), (320, 2), (400, 1)) * 4):
        A, b = _system(rng, m, rows, cols, density=0.01)
        sol = el.solve_dense(A, b, m)
        assert sol == solve_dense(A, b, m)
        solvable += sol is not None
        _check_factor(A, b, m, cols, 60000 * m + t)
    assert 0 < solvable < 12


@pytest.mark.parametrize("m", MODULI)
def test_quotient_presentation_matches_reference(m):
    rng = random.Random(7000 + m)
    for _ in range(150):
        n = rng.randrange(0, 7)
        g = rng.randrange(0, 7)
        rels = [tuple(row) for row in _matrix(rng, m, g, n, rng.choice([0.3, 0.7, 1.0]))]
        assert el.quotient_presentation(n, rels, m) == quotient_presentation(n, rels, m)


@pytest.mark.parametrize("m", MODULI)
def test_subquotient_presentation_matches_reference(m):
    rng = random.Random(8000 + m)
    for _ in range(60):
        n = rng.randrange(1, 6)
        subs = [tuple(row) for row in _matrix(rng, m, rng.randrange(0, 5), n, 0.7)]

        def combination():
            coeffs = [rng.randrange(m) for _ in subs]
            return tuple(sum(c * s[t] for c, s in zip(coeffs, subs)) % m for t in range(n))

        rels = [combination() for _ in range(rng.randrange(0, 4))]
        probe = [combination() for _ in range(3)]
        got = el.subquotient_presentation(subs, rels, n, m)
        want = subquotient_presentation(subs, rels, n, m)
        assert (got.order_exps, got.reps, got._proj) == (want.order_exps, want.reps, want._proj)
        assert [got.coords(v) for v in probe] == [want.coords(v) for v in probe]
