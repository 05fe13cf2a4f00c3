"""Solve blocks: how they are built, solved and enumerated.

One operator builder, solve_operator, turns the chain conditions on a set of
unknown cells into a matrix over Z/p^k and reduces it once; solve_block
solves one source generator's right side against it.  Every solve goes this
way: each stage of the Toda tower (kq.toda, whose one top cell has no faces)
and the model's extensions and homotopy tests (kq.track).

Solution sets are walked coefficient by coefficient; the effective range of
each kernel direction is its order, so every member is produced exactly
once, in a fixed order.  A budget caps the total number of charged states,
walked or stood for by an isomorphic subtree (kq.toda._walk), and aborts
cleanly when exceeded.
"""

import itertools
import math
from collections import defaultdict

from .chain_algebra import pair_basis
from .errors import BudgetExceededError, UserInputError
from .exact_linalg import factor

DEFAULT_BUDGET = 2**20


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


def solve_operator(cells, boundary, Q, dst, deg):
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
