"""Exhaustive enumeration of solver choices for the oracle and the search walks.

Solution sets of the morphism solver are walked coefficient by coefficient;
the effective range of each kernel direction is its order, so every member
is produced exactly once, in a fixed order.  A budget caps the total number
of visited states and aborts cleanly when exceeded.
"""

import itertools
from dataclasses import dataclass

from .errors import BudgetExceededError
from .exact_linalg import padic_val, prime_power

DEFAULT_BUDGET = 2**20


@dataclass
class EnumerationBudget:
    max_points: int = DEFAULT_BUDGET
    spent: int = 0

    def charge(self, n=1):
        self.spent += n
        if self.spent > self.max_points:
            raise BudgetExceededError(
                f"enumeration budget exceeded ({self.spent} > {self.max_points})"
            )


def _effective_ranges(solutions):
    """Order of each kernel direction: coefficients beyond it repeat members."""
    p, k = prime_power(solutions.m)
    out = []
    for row in solutions.kernel_basis:
        lead = next(v for v in row if v)
        a = padic_val(lead, p, k)
        out.append(p ** (k - a))
    return out


def solution_count(solutions):
    n = 1
    for r in _effective_ranges(solutions):
        n *= r
    return n


def enumerate_affine(solutions, budget=None):
    """All members of an affine solution set, each exactly once, in order."""
    budget = budget or EnumerationBudget()
    ranges = _effective_ranges(solutions)
    total = 1
    for r in ranges:
        total *= r
    budget.charge(total)
    for coeffs in itertools.product(*[range(r) for r in ranges]):
        yield solutions.member(coeffs)


def enumerate_block_choices(result, budget=None):
    """All choice dictionaries for a SolveResult, exactly one per member."""
    budget = budget or EnumerationBudget()
    per_block = []
    for b in result.blocks:
        ranges = _effective_ranges(b.solutions)
        per_block.append([b.generator, list(itertools.product(*[range(r) for r in ranges]))])
    total = 1
    for _, opts in per_block:
        total *= len(opts)
    budget.charge(total)
    for combo in itertools.product(*[opts for _, opts in per_block]):
        yield {gen: tuple(c) for (gen, _), c in zip(per_block, combo)}


def choice_space_size(result):
    n = 1
    for b in result.blocks:
        n *= solution_count(b.solutions)
    return n
