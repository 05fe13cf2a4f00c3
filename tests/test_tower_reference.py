"""The top-cell tower of kq.toda against the cubical tower it replaced.

Each stage of the cubical tower below glues the lower data over the facets
of the k-cube through the origin (tensor, inject_cubical, glue) and extends
that assembly across the whole cube, zero on the facets through the opposite
corner (extend); brackets are read off the final corner assembly by
obstruction.  _Tower and _walk are kept verbatim from before the tower ran on
top cells; the four entry points around them are the bodies of that version
without their argument checks.  kq.toda solves only the top cell of each
stage, and every answer, choice log, budget count and window verdict must
come out the same.  Each returned higher chain complex, rebuilt over whole
cubes, must satisfy the chain condition on every cell.
"""

import random
from dataclasses import dataclass, field

import pytest

from kq.chain_algebra import GradedModule, NatSystem
from kq.cubical import corner_ball, cube_ball, point_ball
from kq.documents import parse_algebra
from kq.errors import BudgetExceededError, InternalInvariantError, UserInputError
from kq.oracle_support import EnumerationBudget, enumerate_block_choices
from kq.toda import (
    DEFINED,
    NOT_CONSTRUCTIBLE,
    WINDOW_UNSOUND,
    BracketResult,
    HigherChainComplex,
    MorphismSequence,
    adams_d,
    build_chain_complex,
    oracle_bracket_set,
    toda_bracket,
)
from kq.tower_cli import parse_sequence
from kq.track import TrackMorphism, extend, glue, inject_cubical, obstruction, pt_morphism, tensor

from randalg import bracket_instances, budget_feasible, random_valid_algebra
from test_closed_form import universal


# ---------------------------------------------------------------------------
# the cubical tower


@dataclass
class _Tower:
    """Nullhomotopy data with the choice log that built it."""

    data: dict  # (index i, level k) -> TrackMorphism over the k-cube
    log: list = field(default_factory=list)

    @staticmethod
    def start(seq, prescribed=None):
        data = {(i, 0): f for i, f in enumerate(seq.maps, 1)}
        data.update(prescribed or {})
        return _Tower(data)

    def glued_assembly(self, i, k):
        """The union over the corner facets of the (k+1)-cube for index i.

        Face r (the facet with a 0 in slot r+1) carries the product of the
        level-r datum at i with the level-(k-r) datum at i+r+1.
        """
        ball = corner_ball(k + 1, 0)
        pieces = []
        for r in range(k + 1):
            left = self.data[(i, r)]
            right = self.data[(i + r + 1, k - r)]
            piece = inject_cubical(tensor(left, right), r, 0, ball)
            pieces.append(piece)
        try:
            return glue(pieces, ball)
        except UserInputError as exc:
            raise InternalInvariantError(
                f"face compatibility failed while assembling index {i} level {k}: {exc}"
            ) from exc

    def solve(self, i, k):
        """Solver blocks extending the glued assembly across the k-cube, zero on the far corner."""
        ball = cube_ball(k)
        zero_cells = [c for c in ball.basis.cells() if "1" in c]
        return extend(ball, self.glued_assembly(i, k - 1), zero_cells)

    def with_level(self, i, k, res):
        data = {**self.data, (i, k): res.morphism}
        return _Tower(data, self.log + [b.log(f"level {k} index {i}") for b in res.blocks])

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

    Each stage is solved once; options(stage, result) lists the choices
    tried there, each turned into a child by SolveResult.instantiate.
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


def _bracket(tower, length, n, nat, choices):
    pinned = choices or {}
    leaf = _walk(tower, _stages(tower, length, n), lambda stage, res: [pinned.get(stage)])
    tower, fail = next(leaf)
    if fail is not None:
        return BracketResult(NOT_CONSTRUCTIBLE, choice_log=tower.log, **fail)
    F = tower.glued_assembly(1, n)
    rep = obstruction(F, nat)
    status = WINDOW_UNSOUND if (tower.tainted() or F.tainted) else DEFINED
    return BracketResult(status, representative=rep, choice_log=tower.log)


def cubical_toda_bracket(Q, seq, n):
    return _bracket(_Tower.start(seq), seq.length, n, NatSystem(Q, n), None)


def cubical_oracle_bracket_set(Q, seq, n, budget):
    nat = NatSystem(Q, n)
    found = {}

    def every_choice(stage, res):
        return enumerate_block_choices(res.blocks, budget)

    tower = _Tower.start(seq)
    for leaf, fail in _walk(tower, _stages(tower, seq.length, n), every_choice, budget):
        if fail is not None:
            continue
        F = leaf.glued_assembly(1, n)
        if leaf.tainted() or F.tainted:
            raise UserInputError("bracket enumeration crossed the degree window")
        rep = obstruction(F, nat)
        found.setdefault(rep.coords_key(), rep)
    return [found[key] for key in sorted(found)]


def cubical_build_chain_complex(Q, seq, n, budget):
    nat = NatSystem(Q, n)
    windows = list(range(1, seq.length - n))

    def options(stage, res):
        return enumerate_block_choices(res.blocks, budget)

    def window_failure(tower):
        for i in windows:
            rep = obstruction(tower.glued_assembly(i, n), nat)
            if not rep.is_zero():
                return {"step": n + 1, "index": i, "certificate": {"obstruction": rep.coords_key()}}
        return None

    tower = _Tower.start(seq)
    last_failure = {}
    for leaf, fail in _walk(tower, _stages(tower, seq.length, n), options, budget):
        if fail is None:
            fail = window_failure(leaf)
        if fail is None:
            data = {key: mor for key, mor in leaf.data.items() if key[1] >= 1}
            return HigherChainComplex(seq, n, data, leaf.log), None
        last_failure = fail
    return None, last_failure


def cubical_adams_d(Q, complex_, beta, n):
    modules = list(complex_.seq.modules[: n + 2]) + [beta.src]
    maps = list(complex_.seq.maps[: n + 1]) + [beta]
    aug = MorphismSequence.of(modules, maps)
    prescribed = {
        (i, k): complex_.data[(i, k)]
        for (i, k) in complex_.data
        if i + k <= n + 1 and k >= 1
    }
    return _bracket(_Tower.start(aug, prescribed), aug.length, n, NatSystem(Q, n), None)


# ---------------------------------------------------------------------------
# comparison


def _outcome(fn, *args):
    """fn's value, or the type and message of the engine error it raised."""
    try:
        return fn(*args), None
    except (BudgetExceededError, UserInputError) as exc:
        return None, (type(exc).__name__, str(exc))


def _bracket_key(res):
    rep = None if res.representative is None else res.representative.coords_key()
    return (res.status, res.step, res.index, res.certificate, res.choice_log, rep)


def whole_cubes(hcc):
    """Each top-cell datum of hcc over its whole cube: the glued corner
    assembly of the rebuilt lower data on the cells with a 0, zero on the
    cells with a 1, and the datum itself on the top cell."""
    tower = _Tower.start(hcc.seq)
    for i, k in sorted(hcc.data, key=lambda ik: (ik[1], ik[0])):
        corner = tower.glued_assembly(i, k - 1)
        images, _ = hcc.data[(i, k)]
        values = {**corner.values, **{("*" * k, g): vec for g, vec in enumerate(images) if vec}}
        tower.data[(i, k)] = TrackMorphism(cube_ball(k), corner.src, corner.dst, corner.Q, values)
    return {key: tower.data[key] for key in hcc.data}


def assert_chain_complexes_agree(got, want):
    (hcc, fail), (ref, ref_fail) = got, want
    assert fail == ref_fail
    assert (hcc is None) == (ref is None)
    if hcc is None:
        return
    assert hcc.choice_log == ref.choice_log
    assert sorted(hcc.data) == sorted(ref.data)
    for key, mor in whole_cubes(hcc).items():
        assert mor.check() == [], key
        assert mor.equal(ref.data[key]), key
        assert hcc.data[key][1] == ref.data[key].tainted, key


def compare(Q, seq, n, budget=2**12, walks=("toda", "oracle", "chain-complex", "adams-d")):
    """Every walk of seq at order n agrees with the cubical tower."""
    if "toda" in walks:
        got, err = _outcome(toda_bracket, Q, seq, n)
        want, ref_err = _outcome(cubical_toda_bracket, Q, seq, n)
        assert err == ref_err
        if got is not None:
            assert _bracket_key(got) == _bracket_key(want)
    if "oracle" in walks:
        spent = EnumerationBudget(budget), EnumerationBudget(budget)
        got, err = _outcome(oracle_bracket_set, Q, seq, n, spent[0])
        want, ref_err = _outcome(cubical_oracle_bracket_set, Q, seq, n, spent[1])
        assert err == ref_err
        assert spent[0].spent == spent[1].spent
        if got is not None:
            assert [r.coords_key() for r in got] == [r.coords_key() for r in want]
    window = MorphismSequence.of(seq.modules[: n + 2], seq.maps[: n + 1])
    if "chain-complex" in walks or "adams-d" in walks:
        got, err = _outcome(build_chain_complex, Q, window, n, EnumerationBudget(budget))
        want, ref_err = _outcome(cubical_build_chain_complex, Q, window, n, EnumerationBudget(budget))
        assert err == ref_err
        if got is not None:
            assert_chain_complexes_agree(got, want)
    if "adams-d" in walks and got is not None and got[0] is not None:
        beta = seq.maps[n + 1]
        res, ref = adams_d(Q, got[0], beta, n), cubical_adams_d(Q, want[0], beta, n)
        assert _bracket_key(res) == _bracket_key(ref)
    if "chain-complex" in walks:
        got, err = _outcome(build_chain_complex, Q, seq, n, EnumerationBudget(budget))
        want, ref_err = _outcome(cubical_build_chain_complex, Q, seq, n, EnumerationBudget(budget))
        assert err == ref_err
        if got is not None:
            assert_chain_complexes_agree(got, want)


def window_cut(doc, drop):
    """doc with rMax lowered by drop and the elements above it left out."""
    r_max = doc["rMax"] - drop
    kept = {e["name"] for e in doc["basis"] if e["r"] <= r_max}
    return {
        **doc,
        "rMax": r_max,
        "basis": [e for e in doc["basis"] if e["name"] in kept],
        "differential": [e for e in doc["differential"] if e["from"] in kept],
        "products": [e for e in doc["products"] if all(t["gen"] in kept for t in e["to"])],
    }


def universal_instance(order, modulus, free_cycle, cut=0):
    rng = random.Random(100 * modulus + 10 * order + free_cycle)
    doc = universal.algebra_doc(order, modulus, rng, free_cycle=free_cycle)
    if cut:
        doc = window_cut(doc, cut)
    algebra, violations = parse_algebra(doc)
    assert violations == []
    seq = parse_sequence(universal.sequence_doc(order, universal.draw_units(order, modulus, rng)), algebra)
    return algebra, seq


MODULI = (2, 3, 4, 5, 9)


@pytest.mark.parametrize("free_cycle", [False, True])
@pytest.mark.parametrize("modulus", MODULI)
def test_universal_brackets_agree(modulus, free_cycle):
    for order in (1, 2, 3, 4, 5):
        algebra, seq = universal_instance(order, modulus, free_cycle)
        compare(algebra, seq, order, walks=("toda",))


@pytest.mark.parametrize("free_cycle", [False, True])
@pytest.mark.parametrize("modulus", MODULI)
def test_universal_walks_agree(modulus, free_cycle):
    for order in (1, 2):
        algebra, seq = universal_instance(order, modulus, free_cycle)
        compare(algebra, seq, order)
    if modulus == 2:
        algebra, seq = universal_instance(3, modulus, free_cycle)
        compare(algebra, seq, 3)


def test_budget_error_agrees():
    # the tower-walk shape: 256 leaves do not fit in 100 states
    algebra, seq = universal_instance(3, 4, True)
    with pytest.raises(BudgetExceededError):
        oracle_bracket_set(algebra, seq, 3, EnumerationBudget(100))
    compare(algebra, seq, 3, budget=100, walks=("oracle", "chain-complex"))


@pytest.mark.parametrize("drop", [1, 3])
@pytest.mark.parametrize("modulus", [2, 3, 4, 9])
def test_window_cut_algebras_agree(modulus, drop):
    # with rMax lowered by 3, order 3 cuts its level-2 products to zero; only
    # the taint carried through extend marks the bracket unsound
    unsound = 0
    for order in range(max(1, drop - 1), 6):
        for free_cycle in (False, True):
            algebra, seq = universal_instance(order, modulus, free_cycle, cut=drop)
            walks = ("toda", "oracle", "chain-complex", "adams-d") if order <= drop else ("toda",)
            compare(algebra, seq, order, walks=walks)
            unsound += toda_bracket(algebra, seq, order).status == WINDOW_UNSOUND
    assert unsound > 0


def test_random_instances_agree():
    rng = random.Random(2024)
    seen = 0
    for _ in range(12):
        q = random_valid_algebra(rng)
        for seq in bracket_instances(q, rng, want=2):
            if budget_feasible(q, seq):
                compare(q, seq, 1)
                seen += 1
    assert seen >= 5


@pytest.mark.parametrize("order", [1, 2])
def test_window_reproduction_agrees(order):
    # rMax 1 and letters in bidegree (1, 0) with no products: every composite
    # escapes the window and is cut to zero.  At order 2 the level-2 datum of
    # the window has no product left to cut; it is tainted through its factors.
    from kq.chain_algebra import ChainAlgebra

    letters = "abcd"[: order + 2]
    elements = [("1", 0, 0)] + [(x, 1, 0) for x in letters]
    q = ChainAlgebra(2, order, 1, elements, "1", {}, {})
    assert q.validate() == []
    mods = [GradedModule.of([(f"g{t}", t)]) for t in range(order + 3)]
    maps = [pt_morphism(point_ball(), q, mods[t + 1], mods[t], {(0, 0): {x: 1}}) for t, x in enumerate(letters)]
    seq = MorphismSequence.of(mods, maps)
    assert toda_bracket(q, seq, order).status == WINDOW_UNSOUND
    compare(q, seq, order)
