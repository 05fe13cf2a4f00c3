"""Morphisms over based chain coalgebras with free graded module coefficients.

A morphism assigns to each cell c of a ball and each source generator l an
element of (target module tensor algebra) in bidegree (deg l, dim c),
subject to the chain condition d(f(c,l)) = f(dc, l).  A value is a plain
sparse vector {(target generator, algebra basis name): residue}; whether a
window cut occurred while a morphism was built is recorded once, in
TrackMorphism.tainted, and every constructor here sets it to cover the
morphisms and products it was built from.  Composition goes
through the diagonal of the base, gluing is union of value tables, and
homotopies live over chain-level cylinders.  Every change of base is a
pullback along a chain map: restriction along an inclusion, the injection
onto a face of a larger cube along the inverse of the face inclusion, the
constant homotopy along the projection of its cylinder, and the action of a
homotopy on a face along the sweep of that face across the homotopy's own
cylinder, glued onto the ball (cubical.AttachedCylinder).  Extensions,
homotopy tests and each stage of the Toda tower (kq.toda) solve the chain
conditions over Z/p^k with one operator builder, _operator, from unknown
cells and a boundary map, and solve_block per source generator; the tower's
one top cell has no faces.  solve_for_values returns the solution set on a
ball, whose free parameters are reported for reproducibility and
enumeration; SolveResult.instantiate builds one member from it.
"""

from collections import defaultdict

from .chain_algebra import by_generator, pair_basis, tensor_d, vec_add
from .cubical import (
    AttachedCylinder,
    Ball,
    CubicalComplex,
    complex_basis,
    cylinder_ball,
    face_ball_of,
    orientation_sign,
)
from .errors import InternalInvariantError, ModulusMismatchError, UserInputError
from .exact_linalg import factor


class TrackMorphism:
    def __init__(self, ball, src, dst, Q, values, tainted=False):
        self.ball = ball
        self.src = src  # a GradedModule, as dst is
        self.dst = dst
        self.Q = Q
        self.values = values  # (cell, generator index) -> {(target gen, algebra name): residue}, nonzero only
        self.tainted = tainted  # a window cutoff occurred while building

    def value(self, cell, i):
        return self.values.get((cell, i), {})

    def images(self, cell):
        return tuple(self.values.get((cell, i), {}) for i in range(self.src.size))

    def eval_chain(self, chain, i):
        out = {}
        for cell, coeff in chain.items():
            v = self.values.get((cell, i))
            if v is not None:
                out = vec_add(out, v, self.Q.m, scale=coeff)
        return out

    def equal(self, other):
        return self.src == other.src and self.dst == other.dst and self.values == other.values

    def check(self):
        """Exact chain-condition check; returns the offending (cell, gen) list."""
        bad = []
        for cell in self.ball.basis.cells():
            bnd = self.ball.basis.boundary_of(cell)
            for i in range(self.src.size):
                lhs = tensor_d(self.Q, self.value(cell, i))
                rhs = self.eval_chain(bnd, i)
                if lhs != rhs:
                    bad.append((cell, i))
        return bad


def zero_morphism(ball, src, dst, Q):
    return TrackMorphism(ball, src, dst, Q, {})


def identity_morphism(ball, module, Q):
    values = {(cell, i): {(i, Q.unit): 1} for cell in ball.basis.cells_of_dim(0) for i in range(module.size)}
    return TrackMorphism(ball, module, module, Q, values)


def pt_morphism(ball, Q, src, dst, entries):
    """Morphism over the point from a matrix of degree-0 algebra vectors.

    entries: dict (target index j, source index i) -> sparse algebra vector.
    """
    if list(ball.basis.dims.values()) != [0]:
        raise UserInputError("pt_morphism needs the one-cell base")
    (cell,) = ball.basis.dims
    values = {}
    for i in range(src.size):
        vec = {(j, q): c % Q.m for (j, ii), row in entries.items() if ii == i for q, c in row.items() if c % Q.m}
        if vec:
            values[(cell, i)] = vec
    return TrackMorphism(ball, src, dst, Q, values)


def apply_q_linear(Q, images, vec):
    """The Q-linear map taking source generator i to images[i], applied to vec, and whether the window cut a product."""
    out, cut = {}, False
    for i, q in by_generator(vec).items():
        for j, part in by_generator(images[i]).items():
            prod, flag = Q.elem_mul(part, q)
            cut = cut or flag
            out = vec_add(out, {(j, x): v for x, v in prod.items()}, Q.m)
    return out, cut


def compose(g, f):
    """Composite through the diagonal of the common base."""
    if f.dst != g.src:
        raise UserInputError("composition needs matching modules")
    if f.ball.basis is not g.ball.basis and f.ball.basis.dims != g.ball.basis.dims:
        raise UserInputError("composition needs a common base")
    basis = f.ball.basis
    values = {}
    flag = f.tainted or g.tainted
    for cell in basis.cells():
        terms = basis.diag_of(cell)
        for i in range(f.src.size):
            out = {}
            for sign, front, back in terms:
                fv = f.values.get((back, i))
                if fv is None:
                    continue
                term, cut = apply_q_linear(g.Q, g.images(front), fv)
                flag = flag or cut
                out = vec_add(out, term, g.Q.m, scale=sign)
            if out:
                values[(cell, i)] = out
    return TrackMorphism(f.ball, f.src, g.dst, g.Q, values, flag)


def restrict(f, cells):
    """Restriction to a subcomplex of the base."""
    return restrict_to_ball(f, face_ball_of(f.ball, cells, f.ball.label + "|sub"))


def restrict_to_ball(f, ball):
    """Pullback along the inclusion of ball's basis into f's base."""
    return pullback(f, {c: {c: 1} for c in ball.basis.dims}, ball)


def pullback(f, phi, new_ball):
    """f composed with a chain map phi from new_ball's basis into f's base."""
    values = {}
    for cell in new_ball.basis.cells():
        row = phi.get(cell, {})
        for i in range(f.src.size):
            v = f.eval_chain(row, i)
            if v:
                values[(cell, i)] = v
    return TrackMorphism(new_ball, f.src, f.dst, f.Q, values, f.tainted)


def glue(pieces, ball):
    """Union of value tables over a union base; overlaps must agree exactly."""
    if not pieces:
        raise UserInputError("nothing to glue")
    src, dst, Q = pieces[0].src, pieces[0].dst, pieces[0].Q
    first = {}  # (cell, generator) -> the first value seen there, zero included
    for f in pieces:
        if f.src != src or f.dst != dst:
            raise UserInputError("glued pieces must share modules")
        for cell in f.ball.basis.cells():
            if cell not in ball.basis.dims:
                raise UserInputError(f"piece cell {cell!r} outside the glued ball")
            for i in range(src.size):
                v = f.value(cell, i)
                if first.setdefault((cell, i), v) != v:
                    raise UserInputError(f"face mismatch when gluing at {cell!r}")
    if set().union(*(f.ball.basis.dims for f in pieces)) != set(ball.basis.dims):
        raise UserInputError("glued pieces do not cover the target ball")
    values = {k: v for k, v in first.items() if v}
    flag = any(f.tainted for f in pieces)
    return TrackMorphism(ball, src, dst, Q, values, flag)


def product_ball(b1, b2):
    """The product ball, cells x + y; both factors must have cubical cells."""
    for b in (b1, b2):
        if any(ch not in "01*" for c in b.basis.dims for ch in c):
            raise UserInputError("tensor products need cubical bases")
    words = frozenset(x + y for x in b1.basis.dims for y in b2.basis.dims)
    return Ball(complex_basis(CubicalComplex(words)), f"{b1.label}x{b2.label}")


def tensor(g, f):
    """The product morphism over B' x B: apply f in the back factor, then g."""
    if f.dst != g.src:
        raise UserInputError("tensor needs matching modules")
    ball = product_ball(g.ball, f.ball)
    values = {}
    flag = f.tainted or g.tainted
    back = f.ball.basis.cells()
    for c1 in g.ball.basis.cells():
        for c2 in back:
            for i in range(f.src.size):
                fv = f.values.get((c2, i))
                if fv is None:
                    continue
                out, cut = apply_q_linear(g.Q, g.images(c1), fv)
                flag = flag or cut
                if out:
                    values[(c1 + c2, i)] = out
    return TrackMorphism(ball, f.src, g.dst, g.Q, values, flag)


def inject_cubical(f, position, digit, ambient_ball):
    """f moved onto the face of ambient_ball where a fixed digit sits at position.

    The pullback along the inverse of the face inclusion, which inserts the digit.
    """
    cells = [c[:position] + str(digit) + c[position:] for c in f.ball.basis.dims]
    face = face_ball_of(ambient_ball, cells, f"{f.ball.label}@{position}:{digit}")
    return pullback(f, {c: {c[:position] + c[position + 1 :]: 1} for c in cells}, face)


# ---------------------------------------------------------------------------
# homotopies


class HomotopyWitness:
    def __init__(self, mor, cyl):
        self.mor = mor  # a TrackMorphism over cyl.basis
        self.cyl = cyl  # a CylinderComplex; cyl.base is the base of both its ends


def constant_homotopy(f):
    """The homotopy pulled back along the projection of the cylinder onto f's base."""
    jball, cyl = cylinder_ball(f.ball)
    return HomotopyWitness(pullback(f, cyl.projection(), jball), cyl)


# ---------------------------------------------------------------------------
# the solver


class SolveBlock:
    def __init__(self, generator, slots, solutions, chosen):
        self.generator = generator
        self.slots = slots  # (cell, (target gen, algebra name)) in solver column order
        self.solutions = solutions  # an AffineSolutionSet
        self.chosen = chosen

    def choose(self, choices):
        """This block with the member picked by choices, dict generator -> kernel coefficients, and that member by slot.

        A generator left out takes the particular solution.
        """
        sol = self.solutions
        pick = tuple((choices or {}).get(self.generator, ()))
        if pick and len(pick) != len(sol.kernel_basis):
            raise UserInputError("choice vector has the wrong number of parameters")
        x = sol.member(pick) if pick else sol.particular
        block = SolveBlock(self.generator, self.slots, sol, pick or (0,) * len(sol.kernel_basis))
        return block, {slot: v % sol.m for slot, v in zip(self.slots, x) if v % sol.m}

    def log(self, label):
        free = len(self.solutions.kernel_basis)
        return {"stage": label, "generator": self.generator, "free_parameters": free, "chosen": list(self.chosen)}


class SolveResult:
    def __init__(self, morphism, blocks=None):
        self.morphism = morphism  # the prescribed values, or a member once instantiated
        self.blocks = [] if blocks is None else blocks

    def instantiate(self, choices=None):
        """The member picked by choices (SolveBlock.choose); it replaces self.morphism's values on solved cells."""
        f = self.morphism
        solved = {(c, b.generator) for b in self.blocks for c, _ in b.slots}
        values = {k: v for k, v in f.values.items() if k not in solved}
        blocks = []
        for b in self.blocks:
            block, member = b.choose(choices)
            blocks.append(block)
            for (c, key), v in member.items():
                values.setdefault((c, b.generator), {})[key] = v
        return SolveResult(TrackMorphism(f.ball, f.src, f.dst, f.Q, values, f.tainted), blocks)


def _operator(cells, boundary, Q, dst, deg):
    """The operator of one solve: its slots, its rows and the LinearFactor of its matrix.

    cells: the unknown cells in column order, each with its dimension;
    boundary: cell -> {face: incidence}, lowering the dimension by one.  The
    matrix takes the values on the unknown cells, for a source generator of
    degree deg, to d f(c) - f(dc) on every cell they touch.
    """
    cofaces = defaultdict(list)
    for x, row in boundary.items():
        for c, w in row.items():
            cofaces[c].append((x, w))
    slots = [(c, key) for c, dim in cells.items() for key in pair_basis(dst, Q, deg, dim)]
    touched = dict(cells)  # cell -> its dimension
    entries = defaultdict(dict)  # row (cell, key) -> {slot: coefficient}
    for t, (c, (j, q)) in enumerate(slots):  # d(e_key) at c, minus the incidence at each coface
        for x, v in Q.d_of(q).items():
            entries[(c, (j, x))][t] = v
        for x, w in cofaces[c]:
            entries[(x, (j, q))][t] = -w
            touched[x] = cells[c] + 1
    order = sorted(touched, key=lambda c: (touched[c], c))  # as ChainBasis.cells orders them
    rows = [(c, key) for c in order for key in pair_basis(dst, Q, deg, touched[c] - 1)]
    A = [[entries.get(r, {}).get(t, 0) % Q.m for t in range(len(slots))] for r in rows]
    return slots, rows, factor(A, Q.m, cols=len(slots))


def solve_block(operator, src, i, const, m):
    """Generator i's block at the right side const, dict row -> value, which it consumes; or None and why.

    A value on a row outside the operator's rows has no solution.
    """
    slots, rows, fac = operator
    b = [const.pop(r, 0) for r in rows]
    sol = None if any(v % m for v in const.values()) else fac.solve(b)
    if sol is not None:
        return SolveBlock(i, slots, sol, ()), None
    return None, {"generator": src.name(i), "unknowns": len(slots), "reason": "no solution to the chain conditions"}


def solve_for_values(ball, Q, src, dst, prescribed, unknown_cells, tainted=False):
    """The values on unknown cells with d f(c) = f(dc) on every cell.

    prescribed: dict (cell, generator) -> vector on the known cells.
    tainted: whether a window cut occurred in prescribed, the result's taint.
    Returns (SolveResult, None) or (None, certificate).  The SolveResult is
    the solution set: the prescribed values and one solved block per
    generator.  No member is built; SolveResult.instantiate builds one.
    """
    basis = ball.basis
    cells = {c: basis.dim(c) for c in sorted(unknown_cells, key=lambda c: (basis.dim(c), c))}
    if any(c in cells for c, _ in prescribed):
        raise InternalInvariantError("prescribed value on an unknown cell")
    known = TrackMorphism(ball, src, dst, Q, {k: v for k, v in prescribed.items() if v}, tainted)
    operators = {}  # source degree -> operator
    blocks = []
    for i in range(src.size):
        deg = src.degree(i)
        if deg not in operators:
            operators[deg] = _operator(cells, basis.bnd, Q, dst, deg)
        const = {}  # row -> f(dc) - d f(c) on the prescribed values
        for cell in basis.cells():
            known_d = tensor_d(Q, known.value(cell, i))
            acc = vec_add(known.eval_chain(basis.boundary_of(cell), i), known_d, Q.m, scale=-1)
            const.update(((cell, key), v) for key, v in acc.items())
        block, cert = solve_block(operators[deg], src, i, const, Q.m)
        if block is None:
            return None, cert
        blocks.append(block)
    return SolveResult(known, blocks), None


def extend(ball, partial, zero_cells):
    """Extension of a partial morphism by zero on the opposite subcomplex.

    partial is a morphism over a subcomplex of ball; zero_cells carry the
    prescribed zero, and a window cutoff recorded on partial taints the
    result.  Returns (SolveResult, None) with the particular member built,
    or (None, certificate).
    """
    prescribed = {(c, i): partial.value(c, i) for c in partial.ball.basis.cells() for i in range(partial.src.size)}
    for c in zero_cells:
        for i in range(partial.src.size):
            if prescribed.get((c, i)):
                return None, {
                    "generator": partial.src.name(i),
                    "reason": f"prescribed zero conflicts with partial data at {c!r}",
                }
            prescribed[(c, i)] = {}
    unknown = [c for c in ball.basis.cells() if c not in partial.ball.basis.dims and c not in set(zero_cells)]
    res, cert = solve_for_values(ball, partial.Q, partial.src, partial.dst, prescribed, unknown, tainted=partial.tainted)
    return (None, cert) if res is None else (res.instantiate(), None)


def homotopic(f, g, rel=None):
    """A homotopy witness f ~ g relative to rel (default: the ball boundary).

    Returns (HomotopyWitness, SolveResult) with the particular member built,
    or (None, certificate).  The morphisms must agree on the rel subcomplex.
    A window cut recorded on f or g taints the witness.
    """
    if f.src != g.src or f.dst != g.dst:
        raise UserInputError("homotopy needs matching modules")
    if f.Q.m != g.Q.m:
        raise ModulusMismatchError("homotopy needs morphisms over one modulus")
    collapse = f.ball.boundary if rel is None else frozenset(rel)
    for c in collapse:
        for i in range(f.src.size):
            if f.value(c, i) != g.value(c, i):
                raise UserInputError(f"morphisms differ on the rel subcomplex at {c!r}")
    jball, cyl = cylinder_ball(f.ball, collapse)
    prescribed = {}
    for c in f.ball.basis.cells():
        for i in range(f.src.size):
            prescribed[(cyl.bottom(c), i)] = f.value(c, i)
            if cyl.top(c) != cyl.bottom(c):
                prescribed[(cyl.top(c), i)] = g.value(c, i)
    unknown = [cyl.sleeve(c) for c in f.ball.basis.cells() if c not in collapse]
    res, cert = solve_for_values(jball, f.Q, f.src, f.dst, prescribed, unknown, tainted=f.tainted or g.tainted)
    if res is None:
        return None, cert
    res = res.instantiate()
    return HomotopyWitness(res.morphism, cyl), res


# ---------------------------------------------------------------------------
# actions and obstructions


def sigma_homotopy(f, alpha, orientation=1):
    """The boundary-trivial self-homotopy of f over J(face) classified by alpha.

    f lives over a face ball with a unique interior top cell; the sleeve value
    over the top cell is minus the representative of alpha (scaled by the
    requested orientation), which normalizes obstructions so that acting on
    the zero morphism produces obstruction class exactly alpha.
    """
    w = constant_homotopy(f)
    tops = [c for c in f.ball.basis.cells_of_dim(f.ball.basis.max_dim) if c not in w.cyl.collapse]
    if len(tops) != 1:
        raise UserInputError("sigma needs a unique interior top cell")
    top = tops[0]
    for i in range(f.src.size):
        rep = {(j, name): c for j, ii, h in alpha.entries if ii == i for name, c in h.rep}
        key = (w.cyl.sleeve(top), i)
        w.mor.values[key] = vec_add(w.mor.value(*key), rep, f.Q.m, scale=-orientation)
    w.mor.values = {k: v for k, v in w.mor.values.items() if v}
    return w


def act(F, witness):
    """Glue the witness's cylinder onto its base, a face of F's ball, and pull back along the sweep."""
    if witness.mor.Q.m != F.Q.m:
        raise ModulusMismatchError("the witness and the morphism it acts on need one modulus")
    cyl = witness.cyl
    for c in cyl.base.dims:
        for i in range(F.src.size):
            if witness.mor.value(cyl.top(c), i) != F.value(c, i):
                raise UserInputError("witness top face must equal the restriction of F")
    att = AttachedCylinder(F.ball, cyl)  # checks that cyl collapses the face's rim
    values = dict(F.values)
    values.update((k, v) for k, v in witness.mor.values.items() if k[0] in att.added)
    glued = TrackMorphism(Ball(att.basis), F.src, F.dst, F.Q, values, F.tainted or witness.mor.tainted)
    return pullback(glued, att.action_map(), F.ball)


def act_nat(F, alpha, face_ball, orientation=1):
    """The normalized action of a natural-system element through a face."""
    eps = orientation_sign(F.ball, face_ball) * orientation
    f_face = restrict_to_ball(F, face_ball)
    w = sigma_homotopy(f_face, alpha, orientation=eps)
    return act(F, w)


def obstruction(F, nat, orientation=1):
    """Obstruction class of a morphism vanishing on its ball boundary.

    For a cube the class of the top-cell value; for a union of facets through
    a corner the signed sum of facet classes, normalized to agree with the
    cube convention when all but one facet vanish.
    """
    for c in F.ball.boundary:
        for i in range(F.src.size):
            if F.value(c, i):
                raise UserInputError("obstruction needs a boundary-trivial morphism")
    dim = F.ball.basis.max_dim
    tops = F.ball.basis.cells_of_dim(dim)
    # a cube's top cell has sign 1; a corner ball's facet x_pos = 0 has (-1)^(dim + pos)
    fixed = [[pos for pos, ch in enumerate(top) if ch != "*"] for top in tops]
    if len(tops) == 1:
        signs = [1]
    elif len(tops) > 1 and all(len(f) == 1 and top[f[0]] == "0" for top, f in zip(tops, fixed)):
        signs = [(-1) ** (dim + f[0]) for f in fixed]
    else:
        raise UserInputError("obstruction needs a cube or a corner-faces ball")
    sums = []
    for i in range(F.src.size):
        acc = {}
        for sign, top in zip(signs, tops):
            acc = vec_add(acc, F.value(top, i), F.Q.m, scale=sign * orientation)
        sums.append(acc)
    return class_matrix(nat, F.src, F.dst, sums)


def class_matrix(nat, src, dst, sums):
    """The natural-system element whose (j, i) entry is the class of the j-part of sums[i]."""
    cycles = {(j, i): part for i, acc in enumerate(sums) for j, part in by_generator(acc).items()}
    return nat.from_cycles(src, dst, cycles)
