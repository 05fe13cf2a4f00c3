"""Test-only helpers over the track calculus.

Random morphisms and solver choices, the self-homotopy space of a morphism,
the ends, reversal and pasting of homotopies, the constant lift of a point
morphism and its H_0 classes, a chain-map check and a chain-map solver
between based complexes, every element of a natural system, the
obstruction found by exhaustive search over the natural-system group, the
boundary faces of a cubical ball, the closure of the boundary cells off a
face, and the boundary of the n-cube as a complex.  They check the library
against independent constructions and are not part of it.
"""

from kq import track
from kq.chain_algebra import vec_add
from kq.cubical import FREE, Ball, CubicalComplex, cube_complex, cylinder_ball
from kq.errors import UserInputError
from kq.exact_linalg import prime_power, solve_dense
from kq.oracle_support import EnumerationBudget, _effective_ranges, enumerate_block_choices


def random_choices(result, rng):
    out = {}
    for b in result.blocks:
        out[b.generator] = tuple(
            rng.randrange(r) for r in _effective_ranges(b.solutions)
        )
    return out


def random_morphism(ball, src, dst, Q, rng, boundary_zero=False):
    """A uniformly random morphism, optionally vanishing on the ball boundary."""
    prescribed = {}
    unknown = list(ball.basis.cells())
    if boundary_zero:
        for c in ball.boundary:
            for i in range(src.size):
                prescribed[(c, i)] = {}
        unknown = [c for c in unknown if c not in ball.boundary]
    res, cert = track.solve_for_values(ball, Q, src, dst, prescribed, unknown)
    if res is None:
        raise AssertionError(f"free morphism space must be solvable: {cert}")
    return res.instantiate(random_choices(res, rng)).morphism


def self_homotopy_space(f):
    """The solver blocks for self-homotopies of f over the cylinder on its ball."""
    jball, cyl = cylinder_ball(f.ball)
    prescribed = {}
    for c in f.ball.basis.cells():
        for i in range(f.src.size):
            prescribed[(cyl.bottom(c), i)] = f.value(c, i)
            if cyl.top(c) != cyl.bottom(c):
                prescribed[(cyl.top(c), i)] = f.value(c, i)
    unknown = [cyl.sleeve(c) for c in f.ball.basis.cells() if c not in cyl.collapse]
    res, cert = track.solve_for_values(jball, f.Q, f.src, f.dst, prescribed, unknown)
    if res is None:
        raise AssertionError(f"constant homotopy must exist: {cert}")
    return res, jball, cyl


def enumerate_self_homotopies(f, budget=None):
    res, _, cyl = self_homotopy_space(f)
    for choices in enumerate_block_choices(res, budget):
        yield track.HomotopyWitness(res.instantiate(choices).morphism, cyl)


# ---------------------------------------------------------------------------
# ends, reversal and pasting of homotopies; the constant lift


def include_bottom(cyl):
    return {c: {cyl.bottom(c): 1} for c in cyl.base.cells()}


def include_top(cyl):
    return {c: {cyl.top(c): 1} for c in cyl.base.cells()}


def reverse(cyl):
    """The chain map that swaps the two ends of a cylinder and negates the sleeves."""
    out = {}
    for c in cyl.base.cells():
        out[cyl.bottom(c)] = {cyl.top(c): 1}
        out[cyl.top(c)] = {cyl.bottom(c): 1}
        if c not in cyl.collapse:
            out[cyl.sleeve(c)] = {cyl.sleeve(c): -1}
    return out


def bottom(w):
    """The source end of a homotopy, pulled back along the bottom inclusion."""
    return track.pullback(w.mor, include_bottom(w.cyl), Ball(w.cyl.base))


def top(w):
    """The target end of a homotopy, pulled back along the top inclusion."""
    return track.pullback(w.mor, include_top(w.cyl), Ball(w.cyl.base))


def opposite(w):
    """The reversed homotopy: w pulled back along the end swap of its cylinder."""
    return track.HomotopyWitness(track.pullback(w.mor, reverse(w.cyl), w.mor.ball), w.cyl)


def paste(w1, w2):
    """w1: f ~ g then w2: g ~ h, pulled back along the subdivision map."""
    if w1.cyl.collapse != w2.cyl.collapse:
        raise UserInputError("pasting needs homotopies relative to the same subcomplex")
    if not top(w1).equal(bottom(w2)):
        raise UserInputError("pasting needs matching middle faces")
    values = {}
    for c in w1.cyl.base.cells():
        for i in range(w1.mor.src.size):
            bot = w1.mor.value(w1.cyl.bottom(c), i)
            tp = w2.mor.value(w2.cyl.top(c), i)
            if bot:
                values[(w1.cyl.bottom(c), i)] = dict(bot)
            if w1.cyl.bottom(c) != w1.cyl.top(c) and tp:
                values[(w1.cyl.top(c), i)] = dict(tp)
            s = w1.cyl.sleeve(c)
            if s is not None:
                sv = vec_add(w1.mor.value(s, i), w2.mor.value(s, i), w1.mor.Q.m)
                if sv:
                    values[(s, i)] = sv
    flag = w1.mor.tainted or w2.mor.tainted
    mor = track.TrackMorphism(w1.mor.ball, w1.mor.src, w1.mor.dst, w1.mor.Q, values, flag)
    return track.HomotopyWitness(mor, w1.cyl)


def lift_from_point(ball, f):
    """The base-change of a point morphism along the counit (constant lift)."""
    point = f.ball.basis.cells()[0]
    return track.pullback(f, {c: {point: 1} for c in ball.basis.cells_of_dim(0)}, ball)


def h0_matrix(f, h0):
    """Homology classes of a point morphism's entries."""
    cell = f.ball.basis.cells()[0]
    out = {}
    for i in range(f.src.size):
        v = f.value(cell, i)
        for j in range(f.dst.size):
            vec = {q: c for (jj, q), c in v.items() if jj == j}
            r = f.src.degree(i) - f.dst.degree(j)
            if 0 <= r <= f.Q.r_max:
                out[(j, i)] = h0.class_of(vec, r)
    return out


# ---------------------------------------------------------------------------
# chain maps between based complexes


def apply_boundary(basis, chain):
    """The boundary of a chain (dict cell -> integer coefficient)."""
    out = {}
    for c, v in chain.items():
        for x, w in basis.boundary_of(c).items():
            out[x] = out.get(x, 0) + v * w
    return {x: v for x, v in out.items() if v}


def is_chain_map(phi, src, dst, m=None):
    """Check that phi commutes with boundaries, integrally or mod m."""
    for c in src.cells():
        lhs = apply_boundary(dst, phi.get(c, {}))
        rhs = {}
        for x, v in src.boundary_of(c).items():
            for y, w in phi.get(x, {}).items():
                rhs[y] = rhs.get(y, 0) + v * w
        keys = set(lhs) | set(rhs)
        for y in keys:
            diff = lhs.get(y, 0) - rhs.get(y, 0)
            if diff if m is None else diff % m:
                return False
    return True


def solve_chain_map(src, dst, prescribed, m):
    """A chain map between based complexes extending prescribed cell images.

    prescribed: dict cell -> chain in dst.  Unknown cells get solver-chosen
    images of the matching dimension; returns the full dict or None.
    Deterministic under the pinned pivoting rule.
    """
    unknown = [c for c in src.cells() if c not in prescribed]
    slots = []
    offset = {}
    for c in unknown:
        offset[c] = len(slots)
        slots.extend((c, x) for x in dst.cells_of_dim(src.dim(c)))
    rows = []
    rhs = []
    for c in src.cells():
        if src.dim(c) == 0:
            continue
        row_cells = dst.cells_of_dim(src.dim(c) - 1)
        idx = {x: t for t, x in enumerate(row_cells)}
        block = [[0] * len(slots) for _ in row_cells]
        const = [0] * len(row_cells)
        if c in prescribed:
            for x, v in apply_boundary(dst, prescribed[c]).items():
                const[idx[x]] = (const[idx[x]] + v) % m
        else:
            base = offset[c]
            for t, x in enumerate(dst.cells_of_dim(src.dim(c))):
                for y, w in dst.boundary_of(x).items():
                    block[idx[y]][base + t] = (block[idx[y]][base + t] + w) % m
        for face, coeff in src.boundary_of(c).items():
            if face in prescribed:
                for x, v in prescribed[face].items():
                    const[idx[x]] = (const[idx[x]] - coeff * v) % m
            else:
                base = offset[face]
                for t, x in enumerate(dst.cells_of_dim(src.dim(face))):
                    if x in idx:
                        block[idx[x]][base + t] = (block[idx[x]][base + t] - coeff) % m
        rows.extend(block)
        rhs.extend((-v) % m for v in const)
    sol = solve_dense(rows, rhs, m, cols=len(slots))
    if sol is None:
        return None
    out = {c: dict(ch) for c, ch in prescribed.items()}
    x = sol.particular
    for t, (c, cell) in enumerate(slots):
        if x[t] % m:
            out.setdefault(c, {})[cell] = x[t] % m
    for c in unknown:
        out.setdefault(c, {})
    return out


# ---------------------------------------------------------------------------
# natural systems


def all_classes(hom, r):
    """Every class of H_k in upper degree r, in a fixed order."""
    pres = hom.presentation(r)
    p, _ = prime_power(pres.m)
    coords = [()]
    for e in reversed(pres.order_exps):  # the first coordinate varies fastest
        coords = [(c,) + rest for rest in coords for c in range(p**e)]
    return [hom.class_from_coords(r, c) for c in coords]


def enumerate_nat(nat, src, dst):
    """Every element of the natural system from src to dst, in a fixed order."""
    slots = nat.slots(src, dst)

    def rec(idx):
        if idx == len(slots):
            yield {}
            return
        j, i, r = slots[idx]
        for rest in rec(idx + 1):
            for h in all_classes(nat.hom, r):
                cur = dict(rest)
                if not h.is_zero():
                    cur[(j, i)] = dict(h.rep)
                yield cur

    for cyc in rec(0):
        yield nat.from_cycles(src, dst, cyc)


def obstruction_via_action(F, nat, face_ball, orientation=1, budget=None):
    """Find the class alpha with (0 acted by alpha) homotopic to F, by search.

    Exhaustive over the natural-system group; used to validate the direct
    obstruction formula and orientation laws on small instances.
    """
    budget = budget or EnumerationBudget()
    zero = track.zero_morphism(F.ball, F.src, F.dst, F.Q)
    found = []
    for alpha in enumerate_nat(nat, F.src, F.dst):
        budget.charge()
        cand = track.act_nat(zero, alpha, face_ball, orientation)
        w, _ = track.homotopic(cand, F)
        if w is not None:
            found.append(alpha)
    return found


def boundary_faces(ball):
    """Each top cell of a cubical ball's boundary with all its faces, as a face ball."""
    top = max(ball.basis.dim(c) for c in ball.boundary)
    out = []
    for t in sorted(c for c in ball.boundary if ball.basis.dim(c) == top):
        cells = {c for c in ball.boundary if all(a in (b, "*") for a, b in zip(t, c))}
        out.append(track.face_ball_of(ball, cells, label=f"{ball.label}:{t}"))
    return out


def opposite_face(ball, face_cells):
    """Closure of the boundary cells not in the given face."""
    out = set()
    stack = list(set(ball.boundary) - set(face_cells))
    while stack:
        c = stack.pop()
        if c not in out:
            out.add(c)
            stack.extend(ball.basis.boundary_of(c))
    return frozenset(out)


def cube_boundary_complex(n):
    """All proper faces of the n-cube."""
    return CubicalComplex(n, frozenset(w for w in cube_complex(n).cells if any(ch != FREE for ch in w)))
