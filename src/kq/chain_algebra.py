"""Bigraded truncated chain algebras over Z/p^k and their homology.

A chain algebra here is a finite bigraded basis with differential and
multiplication structure constants.  The upper degree r is bounded by a
window r_max; products escaping the window are zeroed and flagged so that
downstream computations can report when a result depended on the cutoff.
The lower (chain) degree is bounded by the truncation level n, and products
landing above it vanish by definition.

Homology in each lower degree k is presented per upper degree as a finite
Z/p^k-module: cycle representatives with annihilator exponents, computed by
exact Smith reduction.  Natural-system elements (matrices over H_k between
free graded modules) live here as well, with the chain-level product of
maps over the point (apply_q_linear) and the classes of its cycles
(class_matrix).
"""

import math
from collections import defaultdict

from .errors import InternalInvariantError, UserInputError
from .exact_linalg import (
    prime_power,
    quotient_presentation,
    solve_dense,
    subquotient_presentation,
)
from .value import Value


def vec_add(a, b, m, scale=1):
    out = dict(a)
    for key, v in b.items():
        out[key] = out.get(key, 0) + scale * v
    return {k: v % m for k, v in out.items() if v % m}


def vec_scale(a, c, m):
    return {k: (v * c) % m for k, v in a.items() if (v * c) % m}


# ---------------------------------------------------------------------------
# the algebra


class _Rows(dict):
    """(x, y) -> the row of x*y, read through mul_of on first use."""

    def __init__(self, mul_of):
        super().__init__()
        self.mul_of = mul_of

    def __missing__(self, pair):
        row = self[pair] = self.mul_of(*pair)[0]
        return row


class ChainAlgebra:
    """Finite bigraded basis with differential and multiplication constants.

    names: ordered basis names; bidegree[name] = (r, s); unit is the name of
    the degree (0,0) unit.  diff[name] and mul[(a,b)] are sparse vectors over
    the basis.  Structure constants omitted from the tables are zero, except
    that products with the unit default to the unit law.
    """

    def __init__(self, m, n, r_max, elements, unit, diff, mul):
        prime_power(m)
        self.m = m
        self.n = n
        self.r_max = r_max
        self.names = tuple(name for name, _, _ in elements)
        if len(set(self.names)) != len(self.names):
            raise UserInputError("duplicate basis names")
        self.bidegree = {name: (r, s) for name, r, s in elements}
        self.unit = unit
        if unit not in self.bidegree:
            raise UserInputError(f"unit {unit!r} is not a basis element")
        self.diff = {
            a: {x: v % m for x, v in row.items() if v % m} for a, row in diff.items()
        }
        self.mul = {
            pair: {x: v % m for x, v in row.items() if v % m} for pair, row in mul.items()
        }
        for a in list(self.diff):
            if a not in self.bidegree:
                raise UserInputError(f"differential on unknown element {a!r}")
            for x in self.diff[a]:
                if x not in self.bidegree:
                    raise UserInputError(f"differential of {a!r} hits unknown {x!r}")
        for (a, b), row in self.mul.items():
            if a not in self.bidegree or b not in self.bidegree:
                raise UserInputError(f"product on unknown pair ({a!r},{b!r})")
            for x in row:
                if x not in self.bidegree:
                    raise UserInputError(f"product ({a!r},{b!r}) hits unknown {x!r}")
        self._index = {name: i for i, name in enumerate(self.names)}
        self._at = {}
        for name in self.names:
            self._at.setdefault(self.bidegree[name], []).append(name)

    def basis_at(self, r, s):
        return tuple(self._at.get((r, s), ()))

    def d_of(self, name):
        return self.diff.get(name, {})

    def mul_of(self, a, b):
        """Structure constants of a*b and whether the window cut them off."""
        ra, sa = self.bidegree[a]
        rb, sb = self.bidegree[b]
        if ra + rb > self.r_max:
            return {}, True
        if sa + sb > self.n:
            return {}, False
        if (a, b) in self.mul:
            return self.mul[(a, b)], False
        if a == self.unit:
            return {b: 1}, False
        if b == self.unit:
            return {a: 1}, False
        return {}, False

    def partners(self):
        """x -> the y with x*y possibly nonzero: a declared pair or a unit row.

        Built from the current tables, which callers may have edited since
        __init__.
        """
        out = defaultdict(set)
        for x, y in self.mul:
            out[x].add(y)
        for x in self.names:
            out[self.unit].add(x)
            out[x].add(self.unit)
        return out

    def elem_d(self, vec):
        out = {}
        for a, c in vec.items():
            for x, v in self.d_of(a).items():
                out[x] = (out.get(x, 0) + c * v) % self.m
        return {x: v for x, v in out.items() if v}

    def elem_mul(self, v1, v2):
        out = {}
        flagged = False
        for a, c1 in v1.items():
            for b, c2 in v2.items():
                row, flag = self.mul_of(a, b)
                flagged = flagged or flag
                for x, v in row.items():
                    out[x] = (out.get(x, 0) + c1 * c2 * v) % self.m
        return {x: v for x, v in out.items() if v}, flagged

    # -- validation --------------------------------------------------------

    def validate(self):
        """All axiom violations, each with the witnessing basis tuple."""
        report = []

        def bad(axiom, witness, detail):
            report.append({"axiom": axiom, "witness": witness, "detail": detail})

        for name in self.names:
            r, s = self.bidegree[name]
            if r < 0 or r > self.r_max or s < 0:
                bad("degree", (name,), f"bidegree ({r},{s}) outside the window")
            if s > self.n:
                bad("truncation", (name,), f"lower degree {s} exceeds truncation {self.n}")
        if self.bidegree.get(self.unit) != (0, 0):
            bad("unit", (self.unit,), "unit must sit in bidegree (0,0)")

        for a, row in self.diff.items():
            r, s = self.bidegree[a]
            for x in row:
                if self.bidegree[x] != (r, s - 1):
                    bad("degree", (a, x), "differential does not drop the chain degree by one")
        for (a, b), row in self.mul.items():
            ra, sa = self.bidegree[a]
            rb, sb = self.bidegree[b]
            if ra + rb > self.r_max and row:
                bad("degree", (a, b), "declared product escapes the upper-degree window")
                continue
            if sa + sb > self.n and row:
                bad("truncation", (a, b), "declared product lands above the truncation level")
                continue
            for x in row:
                if self.bidegree[x] != (ra + rb, sa + sb):
                    bad("degree", (a, b, x), "product does not add bidegrees")

        # The d^2, Leibniz and associativity checks each sum one difference
        # in an integer dict, unreduced: the two sides agree exactly when
        # every entry is 0 mod m, and they are built only for a report.
        diff = self.diff
        m = self.m
        empty = {}
        for a in self.names:
            acc = {}  # d(d(a))
            for x, k in diff.get(a, empty).items():
                for z, v in diff.get(x, empty).items():
                    acc[z] = acc.get(z, 0) + k * v
            for v in acc.values():
                if v % m:
                    bad("d_squared", (a,), f"d(d({a})) = {self.elem_d(self.elem_d({a: 1}))}")
                    break

        for x in self.names:
            got, _ = self.mul_of(self.unit, x)
            if got != {x: 1}:
                bad("unit", (x,), f"1*{x} = {got}")
            got, _ = self.mul_of(x, self.unit)
            if got != {x: 1}:
                bad("unit", (x,), f"{x}*1 = {got}")

        # The candidates.  mul_of(x, y) is nonzero only for a declared pair or
        # a unit row, so a Leibniz pair or an associativity triple in which no
        # such product occurs has {} on both sides; only the others are
        # visited, in the order of the exhaustive loops.
        # The unit-row rule: when the report has no unit entry, the unit is in
        # (0,0) and 1*x = x = x*1 for every name; if also d(1) = 0, no pair
        # or triple with the unit in it can fail, whatever else failed, and
        # the unit is skipped as a, b and c.  Otherwise every candidate is
        # kept.  Unit rows still lead to candidates without the unit: a b
        # with 1 in d(b) makes a*d(b) read a*1 = a, so hit_by[unit] is kept,
        # and so is partners[unit] for a 1 in d(a) or in a*b.
        unit_ok = not self.d_of(self.unit) and all(v["axiom"] != "unit" for v in report)
        skip = self.unit if unit_ok else None
        partners = self.partners()
        makers = defaultdict(set)  # z -> the pairs (x, y) whose x*y may contain z
        hit_by = defaultdict(set)  # y -> the b with y in d(b)
        for (x, y), row in self.mul.items():
            if skip not in (x, y):
                for z in row:
                    makers[z].add((x, y))
        if skip is None:
            for x in self.names:
                makers[x].update(((self.unit, x), (x, self.unit)))
        for b, row in self.diff.items():
            for y in row:
                hit_by[y].add(b)
        index = self._index.__getitem__
        rows = _Rows(self.mul_of)  # read from the tables as they are now

        for a in self.names:
            if a == skip:
                continue
            ra, sa = self.bidegree[a]
            sign = -1 if sa % 2 else 1
            da = self.d_of(a)
            near = set(partners[a])
            for x in da:
                near |= partners[x]
            for y in partners[a]:
                near |= hit_by[y]
            near.discard(skip)
            for b in sorted(near, key=index):
                rb, sb = self.bidegree[b]
                if ra + rb > self.r_max or sa + sb > self.n + 1:
                    continue
                db = diff.get(b, empty)
                acc = {}  # d(a*b) - d(a)*b - sign*a*d(b)
                for x, k in rows[a, b].items():
                    for z, v in diff.get(x, empty).items():
                        acc[z] = acc.get(z, 0) + k * v
                for x, k in da.items():
                    for z, v in rows[x, b].items():
                        acc[z] = acc.get(z, 0) - k * v
                for y, k in db.items():
                    for z, v in rows[a, y].items():
                        acc[z] = acc.get(z, 0) - sign * k * v
                for v in acc.values():
                    if v % m:
                        lhs = self.elem_d(rows[a, b])
                        rhs = vec_add(self.elem_mul(da, {b: 1})[0], self.elem_mul({a: 1}, db)[0], scale=sign, m=m)
                        bad("leibniz", (a, b), f"d({a}*{b}) = {lhs} but Leibniz gives {rhs}")
                        break

        for a in self.names:
            if a == skip:
                continue
            ra, sa = self.bidegree[a]
            near = set()
            for b in partners[a]:
                if b != skip:
                    for x in rows[a, b]:
                        near.update((b, c) for c in partners[x] if c != skip)
            for y in partners[a]:
                near |= makers[y]
            for b, c in sorted(near, key=lambda bc: (index(bc[0]), index(bc[1]))):
                rb, sb = self.bidegree[b]
                if ra + rb > self.r_max or sa + sb > self.n:
                    continue
                rc, sc = self.bidegree[c]
                if ra + rb + rc > self.r_max or sa + sb + sc > self.n:
                    continue
                acc = {}  # (a*b)*c - a*(b*c)
                for x, k in rows[a, b].items():
                    for z, v in rows[x, c].items():
                        acc[z] = acc.get(z, 0) + k * v
                for y, k in rows[b, c].items():
                    for z, v in rows[a, y].items():
                        acc[z] = acc.get(z, 0) - k * v
                for v in acc.values():
                    if v % m:
                        left, _ = self.elem_mul(rows[a, b], {c: 1})
                        right, _ = self.elem_mul({a: 1}, rows[b, c])
                        bad("associativity", (a, b, c), f"({a}*{b})*{c} = {left} but {a}*({b}*{c}) = {right}")
                        break
        return report


# ---------------------------------------------------------------------------
# homology


def d_vectors(Q, r, s):
    """d of each basis element of Q_(r,s+1), as a dense vector over the basis of Q_(r,s)."""
    below = Q.basis_at(r, s)
    rows = [Q.d_of(a) for a in Q.basis_at(r, s + 1)]
    return [[row.get(x, 0) % Q.m for x in below] for row in rows]


class HClass(Value):
    """A homology class: canonical coordinates plus its canonical cycle."""

    _fields = ("k", "r", "coords", "rep")  # rep: pairs (basis name, coeff), sorted

    def is_zero(self):
        return not any(self.coords)


class Homology:
    """H_k of a chain algebra, presented per upper degree."""

    def __init__(self, Q, k):
        self.Q = Q
        self.k = k
        self._pres = {}
        for r in range(Q.r_max + 1):
            rank = len(Q.basis_at(r, k))
            d_down = [list(col) for col in zip(*d_vectors(Q, r, k - 1))]  # one row per element below
            cycles = solve_dense(d_down, [0] * len(d_down), Q.m, cols=rank).kernel_basis
            bdries = [tuple(vec) for vec in d_vectors(Q, r, k) if any(vec)]
            self._pres[r] = subquotient_presentation(cycles, bdries, rank, Q.m)

    def presentation(self, r):
        return self._pres.get(r)

    def size(self, r):
        return self.presentation(r).size

    def class_of(self, vec, r):
        """Class of a cycle given as a sparse vector over the algebra basis."""
        basis = self.Q.basis_at(r, self.k)
        for name in vec:
            if self.Q.bidegree[name] != (r, self.k):
                raise UserInputError(f"{name!r} is not in bidegree ({r},{self.k})")
        pres = self.presentation(r)
        if pres is None or pres.rank == 0:
            return HClass(self.k, r, (), ())
        dense = [vec.get(name, 0) % self.Q.m for name in basis]
        coords = pres.coords(dense)
        canon = pres.element(coords)
        rep = tuple(sorted((basis[i], c) for i, c in enumerate(canon) if c))
        return HClass(self.k, r, coords, rep)

    def class_from_coords(self, r, coords):
        basis = self.Q.basis_at(r, self.k)
        canon = self.presentation(r).element(coords)
        return self.class_of({basis[i]: c for i, c in enumerate(canon) if c}, r)


def homology(Q, k):
    if not 0 <= k <= Q.n:
        raise UserInputError(f"homology level {k} is outside 0..{Q.n}")
    return Homology(Q, k)


# ---------------------------------------------------------------------------
# truncation


def truncate(Q, n2):
    """The lower truncation: the sub-algebra on the names it keeps.

    Every name below level n2 is kept.  The top level becomes
    Q_n2 / d(Q_{n2+1}), which must be a free Z/m module in each upper degree;
    a torsion quotient (possible over Z/p^2) is reported as an error carrying
    the presentation.  Its basis is the level-n2 names that the Smith
    reduction leaves free (see quotient_presentation), under their own names;
    at level 0 the unit takes the place of one of them (see _unit_named),
    and a unit whose class vanishes, a boundary, makes the truncation the
    zero algebra, which is reported as an error.
    The differential of a kept name lands below n2 and is read off Q as it
    is.  Each declared product of two kept names inside r_max and up to
    level n2 is Q's row projected onto the kept names; the unit law stays
    implicit.
    """
    if not 0 <= n2 <= Q.n:
        raise UserInputError(f"cannot truncate {Q.n}-truncated algebra to level {n2}")
    if n2 == Q.n:
        return Q
    _, k = prime_power(Q.m)
    elements = [(name, *Q.bidegree[name]) for name in Q.names if Q.bidegree[name][1] < n2]
    tops = {}  # r -> (level-n2 basis of Q, its quotient presentation, the free names)
    for r in range(Q.r_max + 1):
        basis = Q.basis_at(r, n2)
        if not basis:
            continue
        rels = [vec for vec in d_vectors(Q, r, n2) if any(vec)]
        pres = quotient_presentation(len(basis), rels, Q.m)
        if any(e != k for e in pres.order_exps):
            raise UserInputError(
                f"truncation level {n2} is not free in upper degree {r}",
                detail={"r": r, "order_exponents": list(pres.order_exps)},
            )
        free = [basis[rep.index(1)] for rep in pres.reps]  # unit vectors, since every generator is free
        coords = pres.coords
        if Q.unit in basis and Q.unit not in free:
            unit_coords = coords([int(x == Q.unit) for x in basis])
            if not any(unit_coords):
                raise UserInputError("the level-0 truncation is the zero algebra: the class of the unit vanishes")
            coords, free = _unit_named(coords, free, Q.unit, unit_coords, Q.m)
        tops[r] = basis, coords, free
        elements.extend((name, r, n2) for name in free)

    def project(vec, r, s):
        """A vector of Q in bidegree (r, s), s <= n2, in the kept names."""
        if s != n2:
            return vec
        basis, coords, free = tops[r]
        return {name: c for name, c in zip(free, coords([vec.get(x, 0) for x in basis])) if c}

    diff = {name: Q.d_of(name) for name, _, _ in elements if Q.d_of(name)}
    kept = {name for name, _, _ in elements}
    mul = {}
    for (a, b), row in Q.mul.items():
        if not row or a not in kept or b not in kept or Q.unit in (a, b):
            continue
        (ra, sa), (rb, sb) = Q.bidegree[a], Q.bidegree[b]
        if ra + rb <= Q.r_max and sa + sb <= n2:
            mul[(a, b)] = project(row, ra + rb, sa + sb)
    out = ChainAlgebra(Q.m, n2, Q.r_max, elements, Q.unit, diff, mul)
    bad = out.validate()
    if bad:
        raise InternalInvariantError(f"truncation produced an invalid algebra: {bad[:3]}")
    return out


def _unit_named(coords, free, unit, unit_coords, m):
    """The coordinate map and the free names with the unit as a basis name.

    The unit replaces free[j] for the first j where its coordinate u_j is
    invertible: the class with coordinates x then has x_j / u_j on the unit
    and x_t - u_t x_j / u_j on free[t].  A unit with no invertible
    coordinate leaves both as they are.
    """
    j = next((t for t, u in enumerate(unit_coords) if math.gcd(u, m) == 1), None)
    if j is None:
        return coords, free
    inv = pow(unit_coords[j], -1, m)

    def unit_coords_of(vec):
        x = coords(vec)
        on_unit = x[j] * inv % m
        return tuple(on_unit if t == j else (v - u * on_unit) % m for t, (v, u) in enumerate(zip(x, unit_coords)))

    return unit_coords_of, [unit if t == j else name for t, name in enumerate(free)]


# ---------------------------------------------------------------------------
# graded modules; an element of (module tensor Q) is a plain vector
# {(generator index, algebra basis name): residue}, and a window cut met in
# computing one is recorded only in the taint flag of the map that holds it
# (TrackMorphism.tainted, toda.PointMap.tainted, a tower entry's flag)


class GradedModule(Value):
    """Finitely generated free graded module, concentrated in chain degree 0."""

    _fields = ("generators",)  # pairs (name, upper degree)

    @staticmethod
    def of(pairs):
        return GradedModule(tuple((str(n), int(r)) for n, r in pairs))

    @property
    def size(self):
        return len(self.generators)

    def degree(self, i):
        return self.generators[i][1]

    def name(self, i):
        return self.generators[i][0]


def pair_basis(module, Q, upper, lower):
    """Ordered basis of (module tensor Q) in the given bidegree."""
    out = []
    for j in range(module.size):
        r = upper - module.degree(j)
        if r < 0:
            continue
        for qname in Q.basis_at(r, lower):
            out.append((j, qname))
    return out


def by_generator(vec):
    """A vector of (module tensor Q) split into one algebra vector per generator."""
    out = defaultdict(dict)
    for (j, q), c in vec.items():
        out[j][q] = c
    return out


def tensor_d(Q, vec):
    """d of a vector of (module tensor Q): the algebra's d on each generator's part."""
    return {(j, x): v for j, part in by_generator(vec).items() for x, v in Q.elem_d(part).items()}


def entry_images(entries, size, m):
    """One vector of (module tensor Q) per source generator, from a matrix of algebra vectors, reduced mod m.

    entries: dict (target index j, source index i) -> sparse algebra vector.
    """
    return tuple(
        {(j, q): c % m for (j, ii), row in entries.items() if ii == i for q, c in row.items() if c % m}
        for i in range(size)
    )


def apply_q_linear(Q, images, vec):
    """The Q-linear map taking source generator i to images[i], applied to vec, and whether the window cut a product."""
    out, cut = {}, False
    for i, q in by_generator(vec).items():
        for j, part in by_generator(images[i]).items():
            prod, flag = Q.elem_mul(part, q)
            cut = cut or flag
            out = vec_add(out, {(j, x): v for x, v in prod.items()}, Q.m)
    return out, cut


# ---------------------------------------------------------------------------
# natural system elements


class NatElem(Value):
    """Matrix over H_k from one free graded module to another."""

    # src and dst are GradedModules; entries is ((j, i, HClass), ...) sorted by (j, i), nonzero classes
    _fields = ("k", "src", "dst", "entries")

    @staticmethod
    def build(k, src, dst, entry_map):
        ent = tuple((j, i, h) for (j, i), h in sorted(entry_map.items()) if not h.is_zero())
        return NatElem(k, src, dst, ent)

    def is_zero(self):
        return not self.entries

    def coords_key(self):
        return tuple((j, i, h.r, h.coords) for j, i, h in self.entries)


class NatSystem:
    """The level-k coefficient system: matrices over H_k between free graded modules.

    Only the level-k homology is built.  Composing such a matrix with maps
    over the point is done at the chain level, with apply_q_linear, and read
    back with class_matrix.
    """

    def __init__(self, Q, k):
        self.Q = Q
        self.k = k
        self.hom = homology(Q, k)

    def slots(self, src, dst):
        """Entry positions (j, i, r) with a nontrivial coefficient module."""
        out = []
        for j in range(dst.size):
            for i in range(src.size):
                r = src.degree(i) - dst.degree(j)
                if r < 0 or r > self.Q.r_max:
                    continue
                if self.hom.size(r) > 1:
                    out.append((j, i, r))
        return out

    def zero(self, src, dst):
        return NatElem.build(self.k, src, dst, {})

    def from_cycles(self, src, dst, cycles):
        """cycles: dict (j, i) -> sparse algebra vector of the right bidegree."""
        entries = {}
        for (j, i), vec in cycles.items():
            r = src.degree(i) - dst.degree(j)
            entries[(j, i)] = self.hom.class_of(vec, r)
        return NatElem.build(self.k, src, dst, entries)

    def add(self, a, b):
        out = {(j, i): dict(h.rep) for j, i, h in a.entries}
        for j, i, h in b.entries:
            out[(j, i)] = vec_add(out.get((j, i), {}), dict(h.rep), self.Q.m)
        return self.from_cycles(a.src, a.dst, out)

    def neg(self, a):
        out = {(j, i): vec_scale(dict(h.rep), -1, self.Q.m) for j, i, h in a.entries}
        return self.from_cycles(a.src, a.dst, out)

    def size(self, src, dst):
        total = 1
        for _, _, r in self.slots(src, dst):
            total *= self.hom.size(r)
        return total


def class_matrix(nat, src, dst, sums):
    """The natural-system element whose (j, i) entry is the class of the j-part of sums[i]."""
    cycles = {(j, i): part for i, acc in enumerate(sums) for j, part in by_generator(acc).items()}
    return nat.from_cycles(src, dst, cycles)
