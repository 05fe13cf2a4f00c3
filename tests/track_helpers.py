"""Test-only helpers over the track calculus.

Random morphisms and solver choices, the self-homotopy space of a morphism,
a chain-map solver between based complexes, and the obstruction found by
exhaustive search over the natural-system group.  They check the library
against independent constructions and are not part of it.
"""

from kq import track
from kq.chain_algebra import ModElem
from kq.cubical import cylinder_ball
from kq.exact_linalg import solve_dense
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
                prescribed[(c, i)] = ModElem.zero(dst, Q)
        unknown = [c for c in unknown if c not in ball.boundary]
    res, cert = track.solve_for_values(ball, Q, src, dst, prescribed, unknown)
    if res is None:
        raise AssertionError(f"free morphism space must be solvable: {cert}")
    choices = random_choices(res, rng)
    res, _ = track.solve_for_values(ball, Q, src, dst, prescribed, unknown, choices)
    return res.morphism


def self_homotopy_space(f):
    """The solver blocks for self-homotopies of f over the cylinder on its ball."""
    jball, cyl = cylinder_ball(f.ball)
    prescribed = {}
    for c in f.ball.basis.cells():
        for i in range(f.src.size):
            prescribed[(cyl.bottom(c), i)] = f.value(c, i)
            if cyl.top(c) != cyl.bottom(c):
                prescribed[(cyl.top(c), i)] = f.value(c, i)
    unknown = [c for c in jball.basis.cells() if c.startswith("e:")]
    res, cert = track.solve_for_values(jball, f.Q, f.src, f.dst, prescribed, unknown)
    if res is None:
        raise AssertionError(f"constant homotopy must exist: {cert}")
    return res, jball, cyl


def enumerate_self_homotopies(f, budget=None):
    res, jball, cyl = self_homotopy_space(f)
    prescribed_unknown = [c for c in jball.basis.cells() if c.startswith("e:")]
    for choices in enumerate_block_choices(res, budget):
        out, _ = track.solve_for_values(
            jball,
            f.Q,
            f.src,
            f.dst,
            {k: v for k, v in res.morphism.values.items() if not k[0].startswith("e:")},
            prescribed_unknown,
            choices,
        )
        yield track.HomotopyWitness(out.morphism, cyl, f.ball)


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
            for x, v in dst.apply_boundary(prescribed[c]).items():
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


def obstruction_via_action(F, nat, face_ball, orientation=1, budget=None):
    """Find the class alpha with (0 acted by alpha) homotopic to F, by search.

    Exhaustive over the natural-system group; used to validate the direct
    obstruction formula and orientation laws on small instances.
    """
    budget = budget or EnumerationBudget()
    zero = track.zero_morphism(F.ball, F.src, F.dst, F.Q)
    found = []
    for alpha in nat.enumerate(F.src, F.dst):
        budget.charge()
        cand = track.act_nat(zero, alpha, face_ball, nat, orientation)
        w, _ = track.homotopic(cand, F)
        if w is not None:
            found.append(alpha)
    return found
