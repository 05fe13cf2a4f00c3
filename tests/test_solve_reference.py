"""solve_dense and quotient_presentation against the four-transform Smith solver.

solve_dense reads its answer off the Howell form of the graph {(Ax, x)}, and
quotient_presentation runs only the row half of the Smith reduction.  The
reference below is the earlier solver, which ran the full reduction
(U, D, V and both inverses) for both.  Solution sets, representatives,
coordinate maps and pivots must agree exactly.
"""

import random

import pytest

import kq.exact_linalg as el
from kq.errors import UserInputError
from kq.exact_linalg import (
    AffineSolutionSet,
    Presentation,
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
    U, D, V, _, _ = _snf_dense(A, rows, cols, m)
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


@pytest.mark.parametrize("m", MODULI)
def test_solve_matches_reference_on_random_systems(m):
    rng = random.Random(4000 + m)
    for _ in range(250):
        rows = rng.randrange(0, 9)
        cols = rng.randrange(0, 8)
        A, b = _system(rng, m, rows, cols)
        assert el.solve_dense(A, b, m, cols=cols) == solve_dense(A, b, m, cols=cols)
        if rows:
            assert el.solve_dense(A, b, m) == solve_dense(A, b, m)


@pytest.mark.parametrize("m", MODULI)
def test_solve_matches_reference_on_edge_shapes(m):
    rng = random.Random(5000 + m)
    # no rows: every vector solves
    for cols in range(4):
        assert el.solve_dense([], [], m, cols=cols) == solve_dense([], [], m, cols=cols)
    # no columns: solvable exactly when b is zero
    for rows in range(1, 4):
        for b in ([0] * rows, [0] * (rows - 1) + [1]):
            A = [[] for _ in range(rows)]
            assert el.solve_dense(A, b, m, cols=0) == solve_dense(A, b, m, cols=0)
    # all-zero rows with a nonzero right-hand side
    for _ in range(20):
        A, _ = _system(rng, m, 4, 3)
        A[rng.randrange(4)] = [0, 0, 0]
        b = [rng.randrange(m) for _ in range(4)]
        b[next(i for i, row in enumerate(A) if not any(row))] = rng.randrange(1, m)
        assert el.solve_dense(A, b, m) is None
        assert solve_dense(A, b, m) is None
    # the zero matrix
    A = [[0] * 3 for _ in range(3)]
    assert el.solve_dense(A, [0, 0, 0], m) == solve_dense(A, [0, 0, 0], m)


@pytest.mark.parametrize("m", [2, 4, 9, 25])
def test_solve_matches_reference_on_tall_sparse_systems(m):
    rng = random.Random(6000 + m)
    solvable = 0
    for rows, cols in ((300, 3), (320, 2), (400, 1)) * 4:
        A, b = _system(rng, m, rows, cols, density=0.01)
        sol = el.solve_dense(A, b, m)
        assert sol == solve_dense(A, b, m)
        solvable += sol is not None
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
def test_subquotient_presentation_matches_reference(m, monkeypatch):
    rng = random.Random(8000 + m)
    cases = []
    for _ in range(60):
        n = rng.randrange(1, 6)
        subs = [tuple(row) for row in _matrix(rng, m, rng.randrange(0, 5), n, 0.7)]

        def combination():
            coeffs = [rng.randrange(m) for _ in subs]
            return tuple(sum(c * s[t] for c, s in zip(coeffs, subs)) % m for t in range(n))

        rels = [combination() for _ in range(rng.randrange(0, 4))]
        probe = [combination() for _ in range(3)]
        cases.append((n, subs, rels, probe))

    def build():
        out = []
        for n, subs, rels, probe in cases:
            pres = el.subquotient_presentation(subs, rels, n, m)
            out.append((pres, [pres.coords(v) for v in probe]))
        return out

    new = build()
    monkeypatch.setattr(el, "solve_dense", solve_dense)
    monkeypatch.setattr(el, "quotient_presentation", quotient_presentation)
    assert new == build()
