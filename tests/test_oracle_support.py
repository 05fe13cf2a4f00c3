import itertools
import random
import tracemalloc

import pytest

from kq.chain_algebra import GradedModule, NatSystem
from kq.cubical import corner_ball, cube_ball
from kq.errors import BudgetExceededError
from kq.exact_linalg import AffineSolutionSet, howell_form, solve_dense
from kq.oracle_support import (
    EnumerationBudget,
    enumerate_block_choices,
    solution_count,
)
from kq.track import SolveBlock, extend, obstruction

from conftest import make_massey_algebra
from track_helpers import random_morphism


def one_block(s):
    return [SolveBlock(0, [], s, ())]


def members(s, budget=None):
    """The members of s, one per choice enumerate_block_choices makes on one block."""
    return [s.member(choice[0]) for choice in enumerate_block_choices(one_block(s), budget)]


def test_enumerate_block_choices_counting_examples():
    # kernel rank 0: exactly the particular solution
    s = AffineSolutionSet((1, 2), (), 4)
    assert members(s) == [(1, 2)]
    # rank 2 over Z/2: 4 vectors
    basis = howell_form([(1, 0), (0, 1)], 2, 2)
    s = AffineSolutionSet((0, 0), basis, 2)
    assert sorted(members(s)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    # rank 1 over Z/4 with a full-order direction: 4 vectors
    basis = howell_form([(1, 2)], 2, 4)
    s = AffineSolutionSet((0, 0), basis, 4)
    assert len(members(s)) == 4 == solution_count(s)
    # a direction of order 2 contributes 2 members, each exactly once
    basis = howell_form([(2,)], 1, 4)
    s = AffineSolutionSet((1,), basis, 4)
    assert sorted(members(s)) == [(1,), (3,)]


def test_enumerate_block_choices_budget():
    basis = howell_form([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3, 4)
    s = AffineSolutionSet((0, 0, 0), basis, 4)
    with pytest.raises(BudgetExceededError):
        members(s, EnumerationBudget(10))


def test_enumerate_block_choices_charges_before_building():
    # one block with 2^18 members: the budget stops the walk before any is built
    dim = 18
    basis = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
    choices = enumerate_block_choices(one_block(AffineSolutionSet((0,) * dim, basis, 2)), EnumerationBudget(10))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            next(choices)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("m,dim,trials", [(2, 12, 6), (4, 6, 6)])
def test_no_solution_iff_enumeration_fails_large(m, dim, trials):
    rng = random.Random(m * 100 + dim)
    for _ in range(trials):
        rows = rng.randrange(1, 4)
        A = [[rng.randrange(m) for _ in range(dim)] for _ in range(rows)]
        b = [rng.randrange(m) for _ in range(rows)]
        sol = solve_dense(A, b, m, cols=dim)
        brute_found = False
        for x in itertools.product(range(m), repeat=dim):
            if all(
                sum(A[i][j] * x[j] for j in range(dim)) % m == b[i] % m
                for i in range(rows)
            ):
                brute_found = True
                break
        assert (sol is not None) == brute_found
        if sol is not None:
            x = sol.particular
            assert all(
                sum(A[i][j] * x[j] for j in range(dim)) % m == b[i] % m
                for i in range(rows)
            )


def test_corner_obstruction_zero_iff_cubical_extension():
    q = make_massey_algebra()
    nat = NatSystem(q, 1)
    L = GradedModule.of([("t", 3)])
    M = GradedModule.of([("w", 0)])
    tball = corner_ball(2, 0)
    square = cube_ball(2)
    rng = random.Random(73)
    seen = set()
    for _ in range(10):
        F = random_morphism(tball, L, M, q, rng, boundary_zero=True)
        ob = obstruction(F, nat)
        zero_cells = [c for c in square.basis.cells() if c not in tball.basis.dims]
        res, _ = extend(square, F, zero_cells)
        assert (res is not None) == ob.is_zero()
        seen.add(ob.is_zero())
    assert seen == {True, False}
