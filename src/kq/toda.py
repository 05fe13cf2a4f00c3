"""Higher Toda brackets, higher chain complexes, and Adams differentials.

Given a composable sequence of maps with vanishing consecutive composites,
nullhomotopy data a(i,k) over the k-cube is built level by level as a
defining system (Kraines 1966, May 1969).  Its only unknown is the value on
the top cell, solved from d a(i,k) = sum_{r<k} (-1)^(r+1) a(i,r) a(i+r+1,k-1-r)
with products of top cells and a(i,0) the i-th map; the sign is that of the
facet with a 0 in slot r+1.  An entry is one vector per source generator on
its top cell *^k, which has no faces, so a stage's operator (track._operator)
is d on dst (x) Q from level k to k-1: a walk reduces it once per
(dst, deg, k) and solves each source generator's corner sum against it.
TrackMorphisms appear only as the sequence maps, each read once at the
point's one cell; a higher chain complex holds the walk's own entries.  The
entry a(i,k) depends only on the picks made in its cone
{(i',k') : k' >= 1, i <= i', i'+k' <= i+k}, so a state of the walk is the
tuple of member keys of the stages solved so far, each naming an entry
built from the picks in its cone.  A walk solves each stage, builds each
member with its choice-log entries and forms each corner-sum product once
per keys in the cones involved; no other walk sees them.  The bracket is the
class of (-1)^(n+1) times the level-(n+1) sum for index 1.  Every solver
choice is logged and can be replayed.  One depth-first walker over the
choice tree serves every entry point: the bracket and adams-d follow one
branch, the oracle visits every leaf to produce the exact bracket set, and
the chain-complex search stops at the first coherent leaf.
"""

from .chain_algebra import NatSystem, vec_add, vec_scale
from .errors import UserInputError
from .oracle_support import EnumerationBudget, enumerate_block_choices
from .track import _operator, apply_q_linear, class_matrix, solve_block
from .value import Value

DEFINED = "defined"
NOT_CONSTRUCTIBLE = "not_constructible"
WINDOW_UNSOUND = "degree_window_unsound"


class MorphismSequence(Value):
    """Maps X_N -> ... -> X_1 -> X_0 over the point ball, with chosen cycle lifts.

    maps[t] is the (t+1)-st map, from modules[t+1] to modules[t].
    """

    _fields = ("modules", "maps")

    @staticmethod
    def of(modules, maps):
        seq = MorphismSequence(tuple(modules), tuple(maps))
        if len(seq.modules) != len(seq.maps) + 1:
            raise UserInputError("a sequence must list one more module than maps")
        for t, f in enumerate(seq.maps):
            if f.src != seq.modules[t + 1] or f.dst != seq.modules[t]:
                raise UserInputError(f"map {t + 1} does not match the module chain")
            if f.ball.basis.dims != {"": 0}:  # the walk reads a(i,0) at the point ball's one cell ""
                raise UserInputError("sequence maps must live over the point")
        return seq

    @property
    def length(self):
        return len(self.maps)


class BracketResult:
    def __init__(self, status, representative=None, step=None, index=None, certificate=None, choice_log=None):
        self.status = status
        self.representative = representative
        self.step = step
        self.index = index
        self.certificate = certificate
        self.choice_log = [] if choice_log is None else choice_log


class HigherChainComplex:
    """Coherent nullhomotopy data for a sequence through a given order."""

    def __init__(self, seq, order, data, choice_log=None):
        self.seq = seq  # a MorphismSequence
        self.order = order
        self.data = data  # (index i, level k) -> the walk's entry: (one vector per source generator on *^k, taint)
        self.choice_log = [] if choice_log is None else choice_log


class _Walk:
    """One depth-first walk: the given entries, the stages still to solve in build order, and the memos.

    An entry is (its images on its top cell, whether a window cut occurred
    while it was built).  The given entries are the maps a(i,0) and any
    prescribed data, each with the key None as it is the same throughout the
    walk.  A state is the tuple keys of member keys of the stages solved so
    far: keys[t] names the entry at stages[t], an int handed out in members,
    and equal keys mean equal picks in its cone.
    """

    def __init__(self, Q, seq, n, prescribed=None):
        self.Q, self.modules, self.n = Q, seq.modules, n
        self.given = {**{(i, 0): (f.images(""), f.tainted) for i, f in enumerate(seq.maps, 1)}, **(prescribed or {})}
        self.stages = [
            (i, k) for k in range(1, n + 1) for i in range(1, seq.length - k + 1) if (i, k) not in self.given
        ]
        self.position = {stage: t for t, stage in enumerate(self.stages)}
        self.operators = {}  # (dst, source degree, level) -> operator, as track._operator builds it
        self.solves = {}  # stage key -> (blocks, taint, None) or (None, None, certificate)
        self.members = {}  # (stage key, pick) -> member key
        self.built = []  # member key -> ((one vector per source generator on *^k, taint), its choice-log entries)
        self.products = {}  # (i, r, k, left key, right key) -> (vectors, taint)
        self.inert_masks = {}  # stage -> its inert kernel directions, per block

    def key(self, keys, i, k):
        """The member key of a(i,k) in state keys, None for a given entry."""
        t = self.position.get((i, k))
        return None if t is None else keys[t]

    def entry(self, keys, i, k):
        """a(i,k) in state keys."""
        key = self.key(keys, i, k)
        return self.given[(i, k)] if key is None else self.built[key][0]

    def log(self, keys):
        return [entry for key in keys for entry in self.built[key][1]]

    def tainted(self, keys):
        return any(tainted for _, tainted in [*self.given.values(), *(self.built[key][0] for key in keys)])

    def product(self, keys, i, r, k):
        """a(i,r) times a(i+r+1,k-1-r) per source generator, and whether a factor or the window tainted it."""
        key = (i, r, k, self.key(keys, i, r), self.key(keys, i + r + 1, k - 1 - r))
        if key not in self.products:
            (left, left_cut), (right, right_cut) = self.entry(keys, i, r), self.entry(keys, i + r + 1, k - 1 - r)
            terms = [apply_q_linear(self.Q, left, vec) for vec in right]
            tainted = left_cut or right_cut or any(cut for _, cut in terms)
            self.products[key] = [term for term, _ in terms], tainted
        return self.products[key]

    def corner_sum(self, keys, i, k):
        """src, dst, the right side of d a(i,k) per source generator, and any taint."""
        src, m = self.modules[i + k], self.Q.m
        products = [self.product(keys, i, r, k) for r in range(k)]
        sums = []
        for gen in range(src.size):
            acc = {}
            for r, (terms, _) in enumerate(products):
                acc = vec_add(acc, terms[gen], m, scale=-1 if r % 2 == 0 else 1)
            sums.append(acc)
        return src, self.modules[i - 1], sums, any(tainted for _, tainted in products)

    def obstruction(self, keys, i, n, nat):
        """The class of (-1)^(n+1) times the level-(n+1) corner sum, and its taint."""
        src, dst, sums, tainted = self.corner_sum(keys, i, n + 1)
        sign = -1 if n % 2 == 0 else 1
        return class_matrix(nat, src, dst, [vec_scale(acc, sign, nat.Q.m) for acc in sums]), tainted

    def cone(self, keys, i, k):
        """The stage key of (i, k): (i, k) and the member keys of a(i,k-1) and a(i+1,k-1).

        The cone of a(i,k) is its apex and the cones of those two, so equal
        stage keys mean equal picks in it.
        """
        return i, k, self.key(keys, i, k - 1), self.key(keys, i + 1, k - 1)

    def solve(self, keys, cone):
        """a(i,k)'s blocks and taint, or a certificate, from d a(i,k) = the corner sum, once per stage key."""
        if cone not in self.solves:
            i, k = cone[:2]
            src, dst, sums, tainted = self.corner_sum(keys, i, k)
            top, blocks, cert = "*" * k, [], None
            for gen, acc in enumerate(sums):
                op = (dst, src.degree(gen), k)
                if op not in self.operators:
                    self.operators[op] = _operator({top: k}, {}, self.Q, dst, op[1])
                const = {(top, x): v for x, v in acc.items()}
                block, cert = solve_block(self.operators[op], src, gen, const, self.Q.m)
                if block is None:
                    break
                blocks.append(block)
            self.solves[cone] = (None, None, cert) if cert is not None else (blocks, tainted, None)
        return self.solves[cone]

    def inert(self, i, k, blocks):
        """Per block of the solved stage (i, k), which kernel directions are inert; None if none is.

        A direction v is inert when no name in its support takes part in a
        declared product, no given entry contains the unit (members sit at
        level >= 1 and never do), and the window cuts none of v's products.
        For the last: a value of a(i,k) at source generator g and target
        generator j lies in upper degree deg g - deg j, as does a given
        map's (parse_sequence checks it).  a(i,k) is the left factor of
        a(i,k)*a(i+k+1,K-1-k), from X_(i+K), and the right factor of
        a(i-r-1,r)*a(i,k), into X_(i-r-2), for K = r+1+k <= n+1, so r(x) +
        r(y) for x in v and y in the other factor is the degree of the outer
        source generator minus that of the outer target one.  Only a y of
        upper degree 0..r_max can be a name, so only those count.  The
        kernel of a stage is that of its operator, the same in every state,
        so the answer is worked out once per stage.

        The walk uses a member only through products, in corner sums and
        obstructions.  For x in v's support and y a name in a factor it
        meets, mul_of(x, y) is not cut, and it is {} as (x, y) and (y, x) are
        not declared and neither x nor y is the unit.  Products are
        bilinear, so adding multiples of inert directions to a(i,k) changes
        no product and no cut flag it takes part in: not even where a name of
        the particular solution cancels, as that name is then in v's support.
        Every later stage then sees the same right-hand side and taint, so
        two picks that differ only in inert coordinates have isomorphic
        subtrees: the same solvable stages with the same options, charges,
        taints, leaf classes and failures, in the same order.  The condition
        is sufficient, not necessary: a cut product or a declared one may
        still vanish on the walk's entries.
        """
        if (i, k) not in self.inert_masks:
            Q, mods = self.Q, self.modules
            src, dst = mods[i + k], mods[i - 1]
            multiplied = {x for pair in Q.mul for x in pair}
            unit_free = all(x != Q.unit for images, _ in self.given.values() for vec in images for _, x in vec)
            last = min(i + self.n + 1, len(mods) - 1)
            far = [d for t in range(i + k + 1, last + 1) for _, d in mods[t].generators]  # outer sources
            near = [d for t in range(max(i + k - self.n - 2, 0), i - 1) for _, d in mods[t].generators]  # outer targets

            def cut(g, j):
                """Whether the window may cut a product of the value of a(i,k) at (g, j)."""
                dg, dj = src.degree(g), dst.degree(j)
                ys = [d - dg for d in far] + [dj - d for d in near]  # upper degrees of the factors it meets
                return any(dg - dj + y > Q.r_max for y in ys if 0 <= y <= Q.r_max)

            masks = tuple(
                tuple(
                    unit_free
                    and all(x not in multiplied and not cut(b.generator, j) for (_, (j, x)), c in zip(b.slots, row) if c)
                    for row in b.solutions.kernel_basis
                )
                for b in blocks
            )
            self.inert_masks[(i, k)] = masks if any(any(mask) for mask in masks) else None
        return self.inert_masks[(i, k)]

    def member(self, cone, pick, choice):
        """The key of the member choice picks at cone, built with its choice-log entries once per stage key and pick.

        pick names choice among the options tried at cone: within one walk
        those are the same for equal stage keys.
        """
        if (cone, pick) not in self.members:
            i, k = cone[:2]
            blocks, tainted, _ = self.solves[cone]
            chosen = [b.choose(choice) for b in blocks]
            images = tuple({x: v for (_, x), v in member.items()} for _, member in chosen)
            self.members[(cone, pick)] = len(self.built)
            self.built.append(((images, tainted), [b.log(f"level {k} index {i}") for b, _ in chosen]))
        return self.members[(cone, pick)]


def _walk(walk, options, budget=None, keys=()):
    """Every leaf of the choice tree below the state keys, depth first, one subtree per class of inert picks.

    Each state works out its stage key once and lists the choices in that
    stage's solution set with options(stage, blocks).  Yields (keys, None)
    for a completed state and (keys, failure) for a stage without solution.
    budget, if given, is charged once per state, walked or stood for.

    With a budget (the enumerating walks), a pick with an inert coordinate
    (_Walk.inert) other than 0 stands for a subtree isomorphic to that of
    its representative, the pick with those coordinates 0, which
    itertools.product order lists and walks first.  It is not walked but
    charged the charge recorded for the representative's subtree, unless
    that would cross the budget: then it is walked, so the error comes at
    the same partial sum with the same message.  Every leaf left out has a
    twin with the same class, taint and failure yielded before it, and the
    last leaf yielded is the twin of the last leaf of the whole tree.
    """
    if budget is not None:
        budget.charge()
    if len(keys) == len(walk.stages):
        yield keys, None
        return
    i, k = walk.stages[len(keys)]
    cone = walk.cone(keys, i, k)
    blocks, _, cert = walk.solve(keys, cone)
    if cert is not None:
        yield keys, {"step": k, "index": i, "certificate": cert}
        return
    inert = budget is not None and walk.inert(i, k, blocks)
    charges = {}  # representative -> the charge of its subtree
    for pick, choice in enumerate(options((i, k), blocks)):
        if inert:
            rep = tuple(tuple(0 if flag else c for c, flag in zip(cs, mask)) for cs, mask in zip(choice.values(), inert))
            if rep in charges and budget.spent + charges[rep] <= budget.max_points:
                budget.charge(charges[rep])
                continue
            spent = budget.spent
        yield from _walk(walk, options, budget, keys + (walk.member(cone, pick, choice),))
        if inert:
            charges.setdefault(rep, budget.spent - spent)


def _every_choice(budget):
    """The option function that enumerates every member of each stage within budget."""
    return lambda stage, blocks: enumerate_block_choices(blocks, budget)


def nat_system(Q, n, nat=None):
    """The level-n natural system of Q, nat if it is that one, once Q is known to be n-truncated."""
    if Q.n != n:
        raise UserInputError(f"the algebra is {Q.n}-truncated but order {n} was requested")
    if nat is not None and (nat.Q is not Q or nat.k != n):
        raise UserInputError(f"the natural system must be the level-{n} system of this algebra")
    return nat or NatSystem(Q, n)


def _bracket(walk, n, nat, choices=None):
    """The deterministic walk: the pinned choice or the particular solution per stage."""
    pinned = choices or {}
    keys, fail = next(_walk(walk, lambda stage, blocks: [pinned.get(stage)]))
    if fail is not None:
        return BracketResult(NOT_CONSTRUCTIBLE, choice_log=walk.log(keys), **fail)
    rep, tainted = walk.obstruction(keys, 1, n, nat)
    status = WINDOW_UNSOUND if (walk.tainted(keys) or tainted) else DEFINED
    return BracketResult(status, representative=rep, choice_log=walk.log(keys))


def toda_bracket(Q, seq, n, choices=None, nat=None):
    """Deterministic representative of the order-n bracket of an (n+2)-sequence; Q must be valid."""
    nat = nat_system(Q, n, nat)
    if seq.length != n + 2:
        raise UserInputError(f"order-{n} brackets need {n + 2} maps, got {seq.length}")
    return _bracket(_Walk(Q, seq, n), n, nat, choices)


def oracle_bracket_set(Q, seq, n, budget=None, nat=None):
    """The exact bracket set by exhaustive enumeration of every choice; Q must be valid."""
    nat = nat_system(Q, n, nat)
    if seq.length != n + 2:
        raise UserInputError(f"order-{n} brackets need {n + 2} maps, got {seq.length}")
    budget = budget if budget is not None else EnumerationBudget()
    found = {}
    walk = _Walk(Q, seq, n)
    for keys, fail in _walk(walk, _every_choice(budget), budget):
        if fail is not None:
            continue
        rep, tainted = walk.obstruction(keys, 1, n, nat)
        if walk.tainted(keys) or tainted:
            raise UserInputError("bracket enumeration crossed the degree window")
        found.setdefault(rep.coords_key(), rep)
    return [found[key] for key in sorted(found)]


def triple_indeterminacy(Q, seq, nat=None):
    """Generators of the indeterminacy subgroup of a triple bracket.

    The subgroup of D^1(X3, X0) generated by precomposition of D^1(X2, X0)
    with the last map and postcomposition of D^1(X3, X1) with the first,
    each product formed as in the tower; None if the degree window cut off
    one of those products.
    """
    if seq.length != 3:
        raise UserInputError("triple indeterminacy needs exactly 3 maps")
    if Q.n != 1:
        raise UserInputError("triple indeterminacy is defined for 1-truncated algebras")
    nat = nat_system(Q, 1, nat)
    X0, X1, X2, X3 = seq.modules
    first, _, last = (f.images("") for f in seq.maps)
    sides = (
        (X2, X0, lambda e, t: apply_q_linear(Q, e, last[t])),
        (X3, X1, lambda e, t: apply_q_linear(Q, first, e[t])),
    )
    gens = {}
    for src, dst, product in sides:
        for j, i, r in nat.slots(src, dst):
            pres = nat.hom.presentation(r)
            for t in range(pres.rank):
                h = nat.hom.class_from_coords(r, tuple(int(s == t) for s in range(pres.rank)))
                e = [{(j, q): c % Q.m for q, c in h.rep if c % Q.m} if g == i else {} for g in range(src.size)]
                products = [product(e, g) for g in range(X3.size)]
                if any(cut for _, cut in products):
                    return None
                img = class_matrix(nat, X3, X0, [acc for acc, _ in products])
                if not img.is_zero():
                    gens.setdefault(img.coords_key(), img)
    return [gens[k] for k in sorted(gens)]


def build_chain_complex(Q, seq, n, search_budget=None, nat=None):
    """Coherent data with every window obstruction vanishing, if it exists.

    A bounded exhaustive search over all solver choices, whose first leaf is
    the deterministic one, looks for a coherent assignment.  Returns
    (HigherChainComplex, None) or (None, failure).  Q must already be valid.
    """
    nat = nat_system(Q, n, nat)
    budget = search_budget if search_budget is not None else EnumerationBudget(2**14)
    windows = list(range(1, seq.length - n))  # F_i^n needs maps i .. i+n+1
    walk = _Walk(Q, seq, n)

    def window_failure(keys):
        for i in windows:
            rep, _ = walk.obstruction(keys, i, n, nat)
            if not rep.is_zero():
                return {"step": n + 1, "index": i, "certificate": {"obstruction": rep.coords_key()}}
        return None

    last_failure = {}
    for keys, fail in _walk(walk, _every_choice(budget), budget):
        if fail is None:
            fail = window_failure(keys)
        if fail is None:
            data = {(i, k): walk.entry(keys, i, k) for i, k in walk.stages}
            return HigherChainComplex(seq, n, data, walk.log(keys)), None
        last_failure = fail
    return None, last_failure


def adams_d(Q, complex_, beta, n, nat=None):
    """Representative of the next differential on a class given by beta.

    complex_ carries coherent data for the resolution window; the sequence is
    augmented by beta as its last map, the missing nullhomotopy tower for
    beta is built at levels 1..n reusing the window data, and the obstruction
    of the final corner sum is returned.  Q must already be valid.
    """
    nat = nat_system(Q, n, nat)
    if complex_.order != n:
        raise UserInputError("the chain complex must be built at the same order")
    if complex_.seq.length < n + 1:
        raise UserInputError(f"resolution window too short: need {n + 1} maps")
    if beta.dst != complex_.seq.modules[n + 1]:
        raise UserInputError("the class lift must land in the end of the window")
    modules = list(complex_.seq.modules[: n + 2]) + [beta.src]
    maps = list(complex_.seq.maps[: n + 1]) + [beta]
    aug = MorphismSequence.of(modules, maps)
    prescribed = {(i, k): entry for (i, k), entry in complex_.data.items() if i + k <= n + 1}
    return _bracket(_Walk(Q, aug, n, prescribed), n, nat)
