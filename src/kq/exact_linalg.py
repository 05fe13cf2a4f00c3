"""Exact linear algebra over Z/m with m a prime power.

Everything in the engine reduces to affine systems over Z/p^k.  They are
solved through the Howell form, the analogue of reduced row echelon form for
Z/m, which is unique for a given row span: kernel bases are Howell bases and
particular solutions are canonical coset representatives, so every solution
set is reproducible bit for bit whatever way it was found.  An operator is
reduced once, by factor, and each right-hand side then costs two reductions
against the stored bases; solve_dense is factor(A, m, cols).solve(b), the
one solver path.

Module presentations use a row-only Smith reduction.  Over a local ring like
Z/p^k it needs no gcd iteration: once a pivot of minimal p-adic valuation is
chosen, every remaining entry is an exact multiple of it.  The pivot rule is
fixed (first unit in row-major order, otherwise the entry of minimal
valuation at lowest index), so representatives and coordinate maps are
reproducible too.
"""

from functools import cache, cached_property

from .errors import UserInputError
from .value import Value


@cache
def prime_power(m):
    """Split m as p**k, raising if m is not a prime power."""
    if m < 2:
        raise UserInputError(f"modulus must be >= 2, got {m}")
    p = None
    n = m
    for cand in range(2, m + 1):
        if cand * cand > n:
            p = n
            break
        if n % cand == 0:
            p = cand
            break
    k = 0
    while n > 1:
        if n % p != 0:
            raise UserInputError(f"modulus {m} is not a prime power")
        n //= p
        k += 1
    return p, k


def padic_val(x, p, k):
    """p-adic valuation of x mod p^k; the zero residue gets valuation k."""
    x = x % (p**k)
    if x == 0:
        return k
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# row-only Smith reduction


def _swap_rows(M, a, b):
    M[a], M[b] = M[b], M[a]


def _swap_cols(M, a, b):
    for row in M:
        row[a], row[b] = row[b], row[a]


def _smith_rows(A, rows, cols, m):
    """Row half of a dense Smith reduction over Z/p^k.

    Returns (vals, U, Uinv): U*A, with its columns permuted, is upper
    triangular with diagonal p**vals[0], p**vals[1], ... in nondecreasing
    valuation, and zero rows below them.  Only the entries below each pivot
    are cleared; the column transform is never formed.
    """
    p, k = prime_power(m)
    D = [[A[i][j] % m for j in range(cols)] for i in range(rows)]
    U = [[int(i == j) for j in range(rows)] for i in range(rows)]
    Ui = [[int(i == j) for j in range(rows)] for i in range(rows)]
    vals = []
    for t in range(min(rows, cols)):
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
        # normalize the unit part so the pivot becomes exactly p**val
        pv = p**val
        w = D[t][t] // pv
        winv = pow(w, -1, m)
        D[t] = [(x * winv) % m for x in D[t]]
        U[t] = [(x * winv) % m for x in U[t]]
        for i in range(rows):
            Ui[i][t] = (Ui[i][t] * w) % m
        # clear below the pivot; exact division since val is minimal
        for i in range(t + 1, rows):
            if D[i][t] == 0:
                continue
            q = D[i][t] // pv
            D[i] = [(x - q * y) % m for x, y in zip(D[i], D[t])]
            U[i] = [(x - q * y) % m for x, y in zip(U[i], U[t])]
            for ii in range(rows):
                Ui[ii][t] = (Ui[ii][t] + q * Ui[ii][i]) % m
        vals.append(val)
    return vals, U, Ui


# ---------------------------------------------------------------------------
# Howell canonical form for submodules of (Z/m)^n


def _leading(row):
    for j, v in enumerate(row):
        if v:
            return j
    return None


def _with_leading(rows):
    """(leading index, row) for each nonzero row, computed once as the row enters the pool."""
    return [(lead, r) for lead, r in ((_leading(r), r) for r in rows) if lead is not None]


def howell_form(vectors, width, m):
    """Unique canonical generating set for the span of the given row vectors."""
    p, k = prime_power(m)
    pool = _with_leading([x % m for x in v] for v in vectors)
    result = []
    pivots = []
    for j in range(width):
        cands = [r for lead, r in pool if lead == j]
        rest = [(lead, r) for lead, r in pool if lead > j]
        if not cands:
            pool = rest
            continue
        piv = min(cands, key=lambda r: padic_val(r[j], p, k))  # the first will do: the Howell form is unique
        cands.remove(piv)
        a = padic_val(piv[j], p, k)
        w = piv[j] // (p**a)
        winv = pow(w, -1, m)
        piv = [(x * winv) % m for x in piv]
        new = []
        for r in cands:
            q = r[j] // (p**a)
            new.append([(x - q * y) % m for x, y in zip(r, piv)])
        if a > 0:
            new.append([(x * p ** (k - a)) % m for x in piv])
        result.append(piv)
        pivots.append((j, p**a))
        pool = rest + _with_leading(new)
    # back-reduction: entries above each pivot are reduced modulo the pivot
    for idx in range(len(result) - 1, -1, -1):
        result[idx] = howell_reduce(result[idx], result[idx + 1 :], m, pivots[idx + 1 :])
    return tuple(result)


def _pivots(basis):
    """(leading index, pivot entry) of each row of a Howell basis; each pivot is a power of p."""
    return tuple((j, row[j]) for j, row in ((_leading(row), row) for row in basis))


def howell_reduce(vec, basis, m, pivots=None):
    """Canonical coset representative of vec modulo the span of a Howell basis.

    pivots, if given, is _pivots(basis), computed once for many vectors.
    """
    v = [x % m for x in vec]
    for row, (j, piv) in zip(basis, _pivots(basis) if pivots is None else pivots):
        q = v[j] // piv
        if q:
            v[j:] = [(x - q * y) % m for x, y in zip(v[j:], row[j:])]
    return tuple(v)


# ---------------------------------------------------------------------------
# affine systems


class AffineSolutionSet(Value):
    """All solutions of A x = b: particular + Z-span of the kernel basis."""

    _fields = ("particular", "kernel_basis", "m")

    @property
    def kernel_rank(self):
        return len(self.kernel_basis)

    @cached_property
    def orders(self):
        """The additive order of each kernel direction: coefficients beyond it repeat members."""
        p, k = prime_power(self.m)
        return tuple(p ** (k - padic_val(next(v for v in row if v), p, k)) for row in self.kernel_basis)

    def member(self, coeffs):
        """particular + sum coeffs[i] * kernel_basis[i]."""
        return combine(self.particular, coeffs, self.kernel_basis, self.m)


def combine(start, coeffs, vectors, m):
    """start + sum coeffs[i] * vectors[i] over Z/m, as a tuple."""
    out = list(start)
    for c, row in zip(coeffs, vectors):
        for t in range(len(out)):
            out[t] = (out[t] + c * row[t]) % m
    return tuple(out)


class LinearFactor(Value):
    """A over Z/m reduced once, to solve A x = b for any number of b.

    live and dead are the indices of the nonzero and the zero rows of A.
    graph is the Howell form of the rows (A e_j, e_j) over the live rows: it
    spans {(Ax, x)}, so reducing (b, 0) by it leaves (0, -x) for a solution x
    exactly when one exists, and its rows that start in the x part are
    already the Howell basis of the kernel.  The pivots of both are kept.
    """

    _fields = ("m", "cols", "live", "dead", "graph", "graph_pivots", "kernel_basis", "kernel_pivots")

    def solve(self, b):
        """All solutions of A x = b as an AffineSolutionSet, or None if there is none."""
        if len(b) != len(self.live) + len(self.dead):
            raise UserInputError("dimension mismatch in solve")
        m = self.m
        if any(b[i] % m for i in self.dead):
            return None
        r = len(self.live)
        red = howell_reduce([b[i] for i in self.live] + [0] * self.cols, self.graph, m, self.graph_pivots)
        if any(red[:r]):
            return None
        part = howell_reduce([-x for x in red[r:]], self.kernel_basis, m, self.kernel_pivots)
        return AffineSolutionSet(part, self.kernel_basis, m)


def factor(A, m, cols=None):
    """The LinearFactor of dense A over Z/m; cols must be passed when A has no rows."""
    if cols is None:
        cols = len(A[0]) if A else 0
    live, dead = [], []
    for i, row in enumerate(A):
        (live if any(x % m for x in row) else dead).append(i)
    r = len(live)
    graph = howell_form(
        [[A[i][j] for i in live] + [int(t == j) for t in range(cols)] for j in range(cols)],
        r + cols,
        m,
    )
    pivots = _pivots(graph)
    top = sum(j < r for j, _ in pivots)  # the rows past these start in the x part
    kernel = tuple(g[r:] for g in graph[top:])
    kernel_pivots = tuple((j - r, piv) for j, piv in pivots[top:])
    return LinearFactor(m, cols, tuple(live), tuple(dead), graph, pivots, kernel, kernel_pivots)


def solve_dense(A, b, m, cols=None):
    """Solve A x = b over Z/m for dense A; returns AffineSolutionSet or None.

    This is factor(A, m, cols).solve(b): a caller with one A and many b
    keeps the factor instead.
    """
    return factor(A, m, cols).solve(b)


# ---------------------------------------------------------------------------
# presentations of finite Z/p^k modules


class Presentation(Value):
    """A finite Z/p^k module given by generators inside an ambient free module.

    reps[i] is an ambient vector representing the i-th generator, whose
    annihilator is p**order_exps[i].  coords() projects an ambient vector
    (assumed to represent a class) to canonical coordinates.
    """

    _fields = ("m", "ambient_rank", "order_exps", "reps", "_proj")  # _proj: rows of the coordinate map

    def __init__(self, m, ambient_rank, order_exps, reps, proj, embed=None):
        Value.__init__(self, m, ambient_rank, order_exps, reps, proj)
        # the LinearFactor of the sub-generators as columns, or None for a quotient; not compared
        vars(self)["_embed"] = embed

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
            sol = self._embed.solve(vec)
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


def quotient_presentation(ambient_rank, relation_vectors, m):
    """Present (Z/m)^ambient_rank modulo the span of the relation vectors.

    The free generators (order exponent k) come last, and each is represented
    by a distinct unit vector with entry 1: the row reduction changes a column
    of the inverse transform only at that column's own pivot step, and free
    generators are the columns past the last pivot.
    """
    p, k = prime_power(m)
    rels = [list(v) for v in relation_vectors]
    R = [[rels[g][i] % m for g in range(len(rels))] for i in range(ambient_rank)]
    vals, U, Ui = _smith_rows(R, ambient_rank, len(rels), m)
    order_exps = []
    reps = []
    proj = []
    for i in range(ambient_rank):
        a = vals[i] if i < len(vals) else k
        if a == 0:
            continue
        order_exps.append(a)
        reps.append(tuple(Ui[t][i] for t in range(ambient_rank)))
        proj.append(tuple(U[i][t] for t in range(ambient_rank)))
    return Presentation(m, ambient_rank, tuple(order_exps), tuple(reps), tuple(proj))


def subquotient_presentation(sub_gens, relation_vectors, ambient_rank, m):
    """Present span(sub_gens)/span(relation_vectors) inside (Z/m)^ambient_rank.

    Relations must lie in the span of the sub-generators; class coordinates of
    an ambient vector are computed by first expressing it in the sub-generators.
    """
    subs = [tuple(x % m for x in g) for g in sub_gens]
    subs = [g for g in subs if any(g)]
    if not subs:
        return Presentation(m, ambient_rank, (), (), ())
    s = len(subs)
    embed = factor([[subs[g][i] for g in range(s)] for i in range(ambient_rank)], m, cols=s)
    inner_rels = [list(v) for v in embed.kernel_basis]
    for b in relation_vectors:
        sol = embed.solve(b)
        if sol is None:
            raise UserInputError("relation vector outside the submodule span")
        inner_rels.append(list(sol.particular))
    inner = quotient_presentation(s, inner_rels, m)
    reps = tuple(combine([0] * ambient_rank, r, subs, m) for r in inner.reps)
    return Presentation(m, ambient_rank, inner.order_exps, reps, inner._proj, embed=embed)
