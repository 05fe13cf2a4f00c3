"""Higher Toda brackets, higher chain complexes, and Adams differentials.

Given a composable sequence of maps with vanishing consecutive composites,
nullhomotopy data a(i,k) over the k-cube is built level by level as a
defining system (Kraines 1966, May 1969).  Its only unknown is the value on
the top cell, solved from d a(i,k) = sum_{r<k} (-1)^(r+1) a(i,r) a(i+r+1,k-1-r)
with products of top cells and a(i,0) the i-th map; the sign is that of the
facet with a 0 in slot r+1.  Each stage is one call of the track solver,
solve_for_values, on the one-cell ball *^k with the corner sum as its
right-hand side.  The bracket is the class of (-1)^(n+1) times the
level-(n+1) sum for index 1.  Every solver choice is logged and can be
replayed.  One depth-first walker over the choice tree serves every entry
point: the bracket and adams-d follow one branch, the oracle visits every
leaf to produce the exact bracket set, and the chain-complex search stops at
the first coherent leaf.
"""

from dataclasses import dataclass, field

from .chain_algebra import NatSystem, vec_add, vec_scale
from .cubical import Ball, ChainBasis
from .errors import UserInputError
from .oracle_support import EnumerationBudget, enumerate_block_choices
from .track import apply_q_linear, class_matrix, pt_morphism, solve_for_values

DEFINED = "defined"
NOT_CONSTRUCTIBLE = "not_constructible"
WINDOW_UNSOUND = "degree_window_unsound"


@dataclass(frozen=True)
class MorphismSequence:
    """Maps X_N -> ... -> X_1 -> X_0 over the point, with chosen cycle lifts.

    maps[t] is the (t+1)-st map, from modules[t+1] to modules[t].
    """

    modules: tuple
    maps: tuple

    @staticmethod
    def of(modules, maps):
        seq = MorphismSequence(tuple(modules), tuple(maps))
        if len(seq.modules) != len(seq.maps) + 1:
            raise UserInputError("a sequence must list one more module than maps")
        for t, f in enumerate(seq.maps):
            if f.src != seq.modules[t + 1] or f.dst != seq.modules[t]:
                raise UserInputError(f"map {t + 1} does not match the module chain")
            if len(f.ball.basis.cells()) != 1:
                raise UserInputError("sequence maps must live over the point")
        return seq

    @property
    def length(self):
        return len(self.maps)


@dataclass
class BracketResult:
    status: str
    representative: object = None
    step: int = None
    index: int = None
    certificate: dict = None
    choice_log: list = field(default_factory=list)


@dataclass
class HigherChainComplex:
    """Coherent nullhomotopy data for a sequence through a given order."""

    seq: MorphismSequence
    order: int
    data: dict  # (index i, level k) -> TrackMorphism over the top cell *^k of the k-cube
    choice_log: list = field(default_factory=list)


@dataclass
class _Tower:
    """Nullhomotopy data with the choice log that built it."""

    data: dict  # (index i, level k) -> TrackMorphism over the top cell *^k of the k-cube
    log: list = field(default_factory=list)

    @staticmethod
    def start(seq, prescribed=None):
        data = {(i, 0): f for i, f in enumerate(seq.maps, 1)}
        data.update(prescribed or {})
        return _Tower(data)

    def corner_sum(self, i, k):
        """src, dst, the right side of d a(i,k) per source generator, and any window cut."""
        pairs = [(r, self.data[(i, r)], self.data[(i + r + 1, k - 1 - r)]) for r in range(k)]
        src, dst, Q = pairs[0][2].src, pairs[0][1].dst, pairs[0][1].Q
        tainted = any(left.tainted or right.tainted for _, left, right in pairs)
        sums = []
        for gen in range(src.size):
            acc = {}
            for r, left, right in pairs:
                term, cut = apply_q_linear(left, "*" * r, right.value("*" * (k - 1 - r), gen))
                tainted = tainted or cut
                acc = vec_add(acc, term, Q.m, scale=-1 if r % 2 == 0 else 1)
            sums.append(acc)
        return src, dst, sums, tainted

    def obstruction(self, i, n, nat):
        """The class of (-1)^(n+1) times the level-(n+1) corner sum, and its taint."""
        src, dst, sums, tainted = self.corner_sum(i, n + 1)
        sign = -1 if n % 2 == 0 else 1
        return class_matrix(nat, src, dst, [vec_scale(acc, sign, nat.Q.m) for acc in sums]), tainted

    def solve(self, i, k):
        """a(i,k) on the one-cell ball *^k, solved from d a(i,k) = the corner sum."""
        src, dst, sums, tainted = self.corner_sum(i, k)
        top = "*" * k
        ball = Ball(ChainBasis({top: k}, {}), top)
        rhs = {(top, gen): acc for gen, acc in enumerate(sums)}
        return solve_for_values(ball, self.data[(i, 0)].Q, src, dst, {}, [top], rhs=rhs, tainted=tainted)

    def with_level(self, i, k, res):
        data = {**self.data, (i, k): res.morphism}
        return _Tower(data, self.log + res.choice_log(f"level {k} index {i}"))

    def tainted(self):
        return any(m.tainted for m in self.data.values())


def _stages(tower, length, n):
    """The (index, level) nodes still missing from tower, in build order."""
    return [
        (i, k)
        for k in range(1, n + 1)
        for i in range(1, length - k + 1)
        if (i, k) not in tower.data
    ]


def _walk(tower, stages, options, budget=None):
    """Every leaf of the choice tree below tower, depth first.

    Each stage is solved once and each choice tried there is built once:
    options(stage, result) lists the choices, and SolveResult.instantiate
    turns each into a child.
    Yields (tower, None) for a completed tower and (tower, failure) for a
    stage without solution.  budget, if given, is charged once per state.
    """
    if budget is not None:
        budget.charge()
    if not stages:
        yield tower, None
        return
    i, k = stages[0]
    res, cert = tower.solve(i, k)
    if res is None:
        yield tower, {"step": k, "index": i, "certificate": cert}
        return
    for choice in options((i, k), res):
        yield from _walk(tower.with_level(i, k, res.instantiate(choice)), stages[1:], options, budget)


def _every_choice(budget):
    """The option function that enumerates every member of each stage within budget."""
    return lambda stage, res: enumerate_block_choices(res, budget)


def nat_system(Q, n, nat=None):
    """The level-n natural system of Q, nat if it is that one, once Q is known to be n-truncated."""
    if Q.n != n:
        raise UserInputError(f"the algebra is {Q.n}-truncated but order {n} was requested")
    if nat is not None and (nat.Q is not Q or nat.k != n):
        raise UserInputError(f"the natural system must be the level-{n} system of this algebra")
    return nat or NatSystem(Q, n)


def _bracket(tower, length, n, nat, choices=None):
    """The deterministic walk: the pinned choice or the particular solution per stage."""
    pinned = choices or {}
    leaf = _walk(tower, _stages(tower, length, n), lambda stage, res: [pinned.get(stage)])
    tower, fail = next(leaf)
    if fail is not None:
        return BracketResult(NOT_CONSTRUCTIBLE, choice_log=tower.log, **fail)
    rep, tainted = tower.obstruction(1, n, nat)
    status = WINDOW_UNSOUND if (tower.tainted() or tainted) else DEFINED
    return BracketResult(status, representative=rep, choice_log=tower.log)


def toda_bracket(Q, seq, n, choices=None, nat=None):
    """Deterministic representative of the order-n bracket of an (n+2)-sequence; Q must be valid."""
    nat = nat_system(Q, n, nat)
    if seq.length != n + 2:
        raise UserInputError(f"order-{n} brackets need {n + 2} maps, got {seq.length}")
    return _bracket(_Tower.start(seq), seq.length, n, nat, choices)


def oracle_bracket_set(Q, seq, n, budget=None, nat=None):
    """The exact bracket set by exhaustive enumeration of every choice; Q must be valid."""
    nat = nat_system(Q, n, nat)
    if seq.length != n + 2:
        raise UserInputError(f"order-{n} brackets need {n + 2} maps, got {seq.length}")
    budget = budget if budget is not None else EnumerationBudget()
    found = {}
    tower = _Tower.start(seq)
    for leaf, fail in _walk(tower, _stages(tower, seq.length, n), _every_choice(budget), budget):
        if fail is not None:
            continue
        rep, tainted = leaf.obstruction(1, n, nat)
        if leaf.tainted() or tainted:
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
    first, _, last = seq.maps
    pt = first.ball
    cell = pt.basis.cells()[0]
    sides = (
        (X2, X0, lambda e, t: apply_q_linear(e, cell, last.value(cell, t))),
        (X3, X1, lambda e, t: apply_q_linear(first, cell, e.value(cell, t))),
    )
    gens = []
    for src, dst, product in sides:
        for j, i, r in nat.slots(src, dst):
            pres = nat.hom.presentation(r)
            for t in range(pres.rank):
                h = nat.hom.class_from_coords(r, tuple(int(s == t) for s in range(pres.rank)))
                e = pt_morphism(pt, Q, src, dst, {(j, i): dict(h.rep)})
                products = [product(e, g) for g in range(X3.size)]
                if any(cut for _, cut in products):
                    return None
                img = class_matrix(nat, X3, X0, [acc for acc, _ in products])
                if not img.is_zero():
                    gens.append(img)
    seen = {}
    for g in gens:
        seen.setdefault(g.coords_key(), g)
    return [seen[k] for k in sorted(seen)]


def build_chain_complex(Q, seq, n, search_budget=None, nat=None):
    """Coherent data with every window obstruction vanishing, if it exists.

    A bounded exhaustive search over all solver choices, whose first leaf is
    the deterministic one, looks for a coherent assignment.  Returns
    (HigherChainComplex, None) or (None, failure).  Q must already be valid.
    """
    nat = nat_system(Q, n, nat)
    budget = search_budget if search_budget is not None else EnumerationBudget(2**14)
    windows = list(range(1, seq.length - n))  # F_i^n needs maps i .. i+n+1

    def window_failure(tower):
        for i in windows:
            rep, _ = tower.obstruction(i, n, nat)
            if not rep.is_zero():
                return {"step": n + 1, "index": i, "certificate": {"obstruction": rep.coords_key()}}
        return None

    tower = _Tower.start(seq)
    last_failure = {}
    for leaf, fail in _walk(tower, _stages(tower, seq.length, n), _every_choice(budget), budget):
        if fail is None:
            fail = window_failure(leaf)
        if fail is None:
            data = {key: mor for key, mor in leaf.data.items() if key[1] >= 1}
            return HigherChainComplex(seq, n, data, leaf.log), None
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
    prescribed = {
        (i, k): complex_.data[(i, k)]
        for (i, k) in complex_.data
        if i + k <= n + 1 and k >= 1
    }
    return _bracket(_Tower.start(aug, prescribed), aug.length, n, nat)
