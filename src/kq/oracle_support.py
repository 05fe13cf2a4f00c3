"""Exhaustive enumeration of solver choices for the oracle and the search walks.

Solution sets of the morphism solver are walked coefficient by coefficient;
the effective range of each kernel direction is its order, so every member
is produced exactly once, in a fixed order.  A budget caps the total number
of charged states, walked or stood for by an isomorphic subtree
(kq.toda._walk), and aborts cleanly when exceeded.
"""

import itertools
import math

from .errors import BudgetExceededError

DEFAULT_BUDGET = 2**20


class EnumerationBudget:
    def __init__(self, max_points=DEFAULT_BUDGET):
        self.max_points = max_points
        self.spent = 0

    def charge(self, n=1):
        self.spent += n
        if self.spent > self.max_points:
            raise BudgetExceededError(
                f"enumeration budget exceeded ({self.spent} > {self.max_points})"
            )


def solution_count(solutions):
    return math.prod(solutions.orders)


def enumerate_block_choices(blocks, budget=None):
    """All choice dictionaries for the solved blocks of one solve, exactly one per member.

    The budget is charged for every member before the first is built; the
    members are then produced one at a time from a single product over the
    ranges of every block, each tuple split back into its blocks.
    """
    budget = budget or EnumerationBudget()
    blocks = [(b.generator, b.solutions.orders) for b in blocks]
    budget.charge(math.prod(r for _, ranges in blocks for r in ranges))
    for coeffs in itertools.product(*[range(r) for _, ranges in blocks for r in ranges]):
        choice, start = {}, 0
        for gen, ranges in blocks:
            choice[gen] = coeffs[start : start + len(ranges)]
            start += len(ranges)
        yield choice


def choice_space_size(result):
    return math.prod(solution_count(b.solutions) for b in result.blocks)
