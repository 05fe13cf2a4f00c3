"""The collapsed walks charge their budget exactly as the walk over every pick.

oracle_bracket_set and build_chain_complex walk one subtree per class of
inert kernel picks (kq.toda._Walk.inert) and charge each subtree they skip
the charge that its representative's subtree made.  At budgets on a partial
sum of the walk over every pick, or one away from one, each error, bracket
set, chain complex and failure must be that of the cubical reference walker
(test_tower_reference.compare).  Two hand-written documents have a free
direction that is not inert: one through a declared product, one through a
product that the window cuts while the particular solution is 0.
"""

import random

import pytest

import kq.toda
from kq.documents import parse_algebra
from kq.errors import UserInputError
from kq.oracle_support import EnumerationBudget
from kq.toda import DEFINED, MorphismSequence, adams_d, build_chain_complex, oracle_bracket_set, toda_bracket
from kq.tower_cli import parse_sequence

from test_closed_form import universal
from test_golden_stdout import hand_doc, point_sequence
from test_toda import _tower_walk_shape, _walk_every_pick
from test_tower_reference import compare, universal_instance


class _Recording(EnumerationBudget):
    """A budget that keeps every partial sum it is charged to."""

    def __init__(self):
        super().__init__()
        self.sums = []

    def charge(self, n=1):
        super().charge(n)
        self.sums.append(self.spent)


def every_pick_sums(algebra, seq, n, monkeypatch):
    """The partial sums of the oracle's walk over every pick, up to its end or its window error."""
    budget = _Recording()
    with monkeypatch.context() as mp:
        _walk_every_pick(mp, True)
        try:
            oracle_bracket_set(algebra, seq, n, budget)
        except UserInputError:
            pass
    return budget.sums


def product_witness():
    """The order-1 universal algebra over Z/9 with z*[3,3] = w declared, w a new cycle in (3,1).

    z is the only free direction of both stages, and a(1,1) = ... + t*z adds
    t*w to the bracket: the set has 9 classes.
    """
    rng = random.Random(2024)
    doc = universal.algebra_doc(1, 9, rng, free_cycle=True)
    doc["basis"].append({"name": "w", "r": 3, "s": 1})
    doc["products"].append({"left": "z", "right": "[3,3]", "to": [{"gen": "w", "coeff": 1}]})
    algebra, violations = parse_algebra(doc)
    assert violations == []
    seq = parse_sequence(universal.sequence_doc(1, universal.draw_units(1, 9, rng)), algebra)
    return algebra, seq, 1


def window_witness():
    """Letters a, b, c in (1,0), no products, a free cycle z in (2,1), and rMax 2.

    Both stages solve d a(i,1) = 0 with particular solution 0 and free
    direction z, and z*c and a*z escape the window: every pick but 0 taints
    its leaf, so the oracle must report the window.
    """
    doc = hand_doc(3, 1, 2, [("a", 1, 0), ("b", 1, 0), ("c", 1, 0), ("z", 2, 1)])
    algebra, violations = parse_algebra(doc)
    assert violations == []
    seq = parse_sequence(point_sequence([(f"x{t}", t) for t in range(4)], ["a", "b", "c"]), algebra)
    return algebra, seq, 1


DOCUMENTS = {
    "universal-3-4-z seed 1": lambda: (*_tower_walk_shape(1), 3),
    "universal-3-4-z seed 431": lambda: (*_tower_walk_shape(431), 3),
    "universal-2-9-z": lambda: (*universal_instance(2, 9, True), 2),
    "product witness": product_witness,
    "window witness": window_witness,
}

# per document, (position in the partial sums as a fraction of their number,
# offset of the budget from that sum); position 1 is the last charge
BOUNDARIES = {
    "universal-3-4-z seed 1": ((1 / 40, -1), (1 / 8, 0), (1 / 4, 1), (1 / 3, 0), (1, -1), (1, 0)),
    "universal-3-4-z seed 431": ((1 / 50, 0), (1 / 10, 1), (1 / 4, -1), (1 / 3, 1)),
    "universal-2-9-z": ((1 / 60, 1), (1 / 12, -1), (1 / 5, 0), (1 / 4, 1)),
    "product witness": ((1 / 20, 0), (1 / 2, -1), (1, -1), (1, 0)),
    "window witness": ((0, 0), (1, 0)),
}


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_budget_boundaries_agree(name, monkeypatch):
    algebra, seq, n = DOCUMENTS[name]()
    sums = every_pick_sums(algebra, seq, n, monkeypatch)
    for fraction, offset in BOUNDARIES[name]:
        budget = sums[min(int(fraction * len(sums)), len(sums) - 1)] + offset
        compare(algebra, seq, n, budget=budget, walks=("oracle", "chain-complex"))


def test_witnesses_are_not_collapsed():
    algebra, seq, n = product_witness()
    assert len(oracle_bracket_set(algebra, seq, n)) == 9
    algebra, seq, n = window_witness()
    with pytest.raises(UserInputError, match="crossed the degree window"):
        oracle_bracket_set(algebra, seq, n)


def test_deterministic_walks_look_for_no_inert_direction(monkeypatch):
    algebra, seq = _tower_walk_shape(1)
    complex_, fail = build_chain_complex(algebra, MorphismSequence.of(seq.modules[:5], seq.maps[:4]), 3)
    assert fail is None

    def refuse(walk, i, k, res):
        raise AssertionError("a deterministic walk looked for inert directions")

    monkeypatch.setattr(kq.toda._Walk, "inert", refuse)
    assert toda_bracket(algebra, seq, 3).status == DEFINED
    assert adams_d(algebra, complex_, seq.maps[4], 3).status == DEFINED
