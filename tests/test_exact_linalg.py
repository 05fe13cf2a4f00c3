import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_massey_algebra, make_z4_algebra
from kq.chain_algebra import GradedModule
from kq.cubical import cube_ball, facet_ball
from kq.errors import ModulusMismatchError, UserInputError
from kq.exact_linalg import (
    AffineSolutionSet,
    _smith_rows,
    howell_form,
    howell_reduce,
    prime_power,
    quotient_presentation,
    solve_dense,
    subquotient_presentation,
)
from kq.track import act, constant_homotopy, homotopic, identity_morphism, restrict_to_ball


def brute_solutions(A, b, m, cols=None):
    rows = len(A)
    if cols is None:
        cols = len(A[0]) if rows else 0
    out = []
    for x in itertools.product(range(m), repeat=cols):
        if all(sum(A[i][j] * x[j] for j in range(cols)) % m == b[i] % m for i in range(rows)):
            out.append(x)
    return set(out)


def in_span(vec, basis, m):
    return not any(howell_reduce(vec, basis, m))


def affine_members(sol, m):
    members = set()
    for coeffs in itertools.product(range(m), repeat=sol.kernel_rank):
        members.add(sol.member(coeffs))
    return members


def test_prime_power():
    assert prime_power(2) == (2, 1)
    assert prime_power(4) == (2, 2)
    assert prime_power(27) == (3, 3)
    with pytest.raises(UserInputError):
        prime_power(6)
    with pytest.raises(UserInputError):
        prime_power(1)


def test_modulus_mismatch_rejected():
    # homotopic and act are the entry points that add two morphisms' values
    module = GradedModule.of([("g", 0)])
    ball = cube_ball(1)
    a = identity_morphism(ball, module, make_massey_algebra())
    b = identity_morphism(ball, module, make_z4_algebra())
    with pytest.raises(ModulusMismatchError):
        homotopic(a, b)
    with pytest.raises(ModulusMismatchError):
        act(b, constant_homotopy(restrict_to_ball(a, facet_ball(1, 0, 0))))


def matmul(A, B, m):
    return [[sum(x * y for x, y in zip(row, col)) % m for col in zip(*B)] for row in A]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def check_row_smith(A, m):
    """U*A is upper triangular up to a column permutation, pivots p**vals."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    vals, U, Ui = _smith_rows(A, rows, cols, m)
    p, _ = prime_power(m)
    assert matmul(U, Ui, m) == identity(rows)
    UA = matmul(U, A, m) if cols else [[] for _ in range(rows)]
    assert vals == sorted(vals)
    used = set()
    for t, a in enumerate(vals):
        assert all(x % p**a == 0 for x in UA[t])
        below_zero = [j for j in range(cols) if all(UA[i][j] == 0 for i in range(t + 1, rows))]
        piv = [j for j in below_zero if j not in used and UA[t][j] == p**a]
        assert piv
        used.add(piv[0])
    assert all(not any(row) for row in UA[len(vals):])
    return vals, U, Ui


def test_snf_already_diagonal_z4():
    assert check_row_smith([[2]], 4) == ([1], [[1]], [[1]])


def test_snf_zero_matrix():
    assert check_row_smith([[0, 0], [0, 0]], 2) == ([], identity(2), identity(2))


def test_snf_identity_example_z2():
    vals, U, _ = check_row_smith([[1, 1], [1, 0]], 2)
    assert vals == [0, 0]
    assert matmul(U, [[1, 1], [1, 0]], 2) == [[1, 1], [0, 1]]


def invertible_mod(mat, m):
    n = len(mat)
    sol = [solve_dense(mat, [int(i == j) for i in range(n)], m) for j in range(n)]
    return all(s is not None for s in sol)


@pytest.mark.parametrize("m", [2, 3, 4, 8, 9])
def test_snf_random_uav_equals_d(m):
    rng = random.Random(1000 + m)
    for _ in range(25):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        A = [[rng.randrange(m) for _ in range(cols)] for _ in range(rows)]
        _, U, Ui = check_row_smith(A, m)
        assert invertible_mod(U, m)
        assert invertible_mod(Ui, m)


def test_solve_examples_from_contract():
    # A = 0, b = 0: kernel is the full space
    sol = solve_dense([[0, 0], [0, 0]], [0, 0], 2)
    assert sol.particular == (0, 0)
    assert affine_members(sol, 2) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    # [[2]] x = 2 over Z/4: solutions {1, 3}
    sol = solve_dense([[2]], [2], 4)
    assert sol.particular == (1,)
    assert sol.kernel_basis == ((2,),)
    assert affine_members(sol, 4) == {(1,), (3,)}
    # [[2]] x = 1 over Z/4: no solution
    assert solve_dense([[2]], [1], 4) is None


@pytest.mark.parametrize("m,dim", [(2, 4), (4, 3), (3, 3), (8, 2)])
def test_solve_matches_enumeration(m, dim):
    rng = random.Random(77 * m + dim)
    for _ in range(30):
        rows = rng.randrange(0, dim + 1)
        A = [[rng.randrange(m) for _ in range(dim)] for _ in range(rows)]
        b = [rng.randrange(m) for _ in range(rows)]
        sol = solve_dense(A, b, m, cols=dim)
        expected = brute_solutions(A, b, m, cols=dim)
        if sol is None:
            assert expected == set()
        else:
            assert affine_members(sol, m) == expected


@given(st.integers(0, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_solution_members_always_solve(rows, data):
    m = data.draw(st.sampled_from([2, 3, 4, 9]))
    cols = data.draw(st.integers(1, 4))
    A = [[data.draw(st.integers(0, m - 1)) for _ in range(cols)] for _ in range(rows)]
    b = [data.draw(st.integers(0, m - 1)) for _ in range(rows)]
    sol = solve_dense(A, b, m, cols=cols)
    if sol is None:
        assert brute_solutions(A, b, m, cols=cols) == set()
        return
    coeffs = [data.draw(st.integers(0, m - 1)) for _ in range(sol.kernel_rank)]
    x = sol.member(coeffs)
    for i in range(rows):
        assert sum(A[i][j] * x[j] for j in range(cols)) % m == b[i] % m
    assert in_span(tuple((a - b) % m for a, b in zip(x, sol.particular)), sol.kernel_basis, m)


def test_determinism_bit_identical():
    A = [[2, 1, 0], [0, 2, 2], [1, 1, 3]]
    b = [1, 2, 3]
    s1 = solve_dense(A, b, 4)
    s2 = solve_dense([row[:] for row in A], list(b), 4)
    assert s1 == s2


def _additive_span(rows, width, m):
    """The subgroup of (Z/m)^width the rows generate, by closing {0} under adding a row."""
    out = {(0,) * width}
    todo = list(out)
    while todo:
        v = todo.pop()
        for r in rows:
            w = tuple((x + y) % m for x, y in zip(v, r))
            if w not in out:
                out.add(w)
                todo.append(w)
    return out


def _assert_howell(gens, width, m, rng):
    h = howell_form(gens, width, m)
    for _ in range(3):
        shuffled = list(gens)
        rng.shuffle(shuffled)
        assert howell_form(shuffled, width, m) == h
    span = _additive_span(gens, width, m)
    assert _additive_span(h, width, m) == span
    assert all(in_span(v, h, m) for v in span)


def test_howell_canonical_under_permutation():
    rng = random.Random(7)
    _assert_howell([(2, 0, 2), (0, 2, 0), (2, 2, 2)], 3, 4, rng)
    # every entry a random multiple of a random power of p, so most pivots are not units
    for m in (4, 8, 9, 27):
        p, k = prime_power(m)
        for _ in range(12):
            gens = [
                tuple(p ** rng.randrange(k) * rng.randrange(m) % m for _ in range(3))
                for _ in range(rng.randint(1, 4))
            ]
            _assert_howell(gens, 3, m, rng)


def test_quotient_basis_trivial_and_examples():
    # no generators: quotient is the ambient module
    pres = quotient_presentation(2, [], 2)
    assert len(pres.reps) == 2
    assert pres.coords((1, 0)) != pres.coords((0, 1))
    # Z/2 rank 2 mod (1,1): both standard vectors map to the same class
    pres = quotient_presentation(2, [(1, 1)], 2)
    assert len(pres.reps) == 1
    assert pres.coords((1, 0)) == pres.coords((0, 1)) != pres.coords((0, 0))
    # Z/4 rank 1 mod (2): quotient is Z/2
    pres = quotient_presentation(1, [(2,)], 4)
    assert pres.order_exps == (1,)
    assert pres.size == 2
    assert pres.coords((1,)) != pres.coords((0,))
    assert pres.coords((2,)) == pres.coords((0,))


def test_quotient_presentation_counts_by_enumeration():
    rng = random.Random(5)
    for m in (2, 4, 9):
        for _ in range(10):
            n = rng.randrange(1, 4)
            g = rng.randrange(0, 3)
            gens = [tuple(rng.randrange(m) for _ in range(n)) for _ in range(g)]
            pres = quotient_presentation(n, gens, m)
            # count classes by brute force
            span = set()
            for coeffs in itertools.product(range(m), repeat=len(gens) or 1):
                v = [0] * n
                for c, r in zip(coeffs, gens):
                    for t in range(n):
                        v[t] = (v[t] + c * r[t]) % m
                span.add(tuple(v))
            classes = set()
            for v in itertools.product(range(m), repeat=n):
                classes.add(frozenset(tuple((a + b) % m for a, b in zip(v, s)) for s in span))
            assert pres.size == len(classes)
            # coords constant on classes, separating across classes
            seen = {}
            for v in itertools.product(range(m), repeat=n):
                cls = frozenset(tuple((a + b) % m for a, b in zip(v, s)) for s in span)
                c = pres.coords(v)
                if cls in seen:
                    assert seen[cls] == c
                else:
                    seen[cls] = c
            assert len(set(seen.values())) == len(classes)


@pytest.mark.parametrize("m", [2, 4, 8, 9, 27])
def test_free_generators_are_distinct_basis_vectors(m):
    # truncate names each free generator by the basis element it is
    _, k = prime_power(m)
    rng = random.Random(m)
    for _ in range(300):
        n = rng.randrange(1, 7)
        rels = [[rng.choice([0, 0, rng.randrange(m)]) for _ in range(n)] for _ in range(rng.randrange(0, 6))]
        pres = quotient_presentation(n, rels, m)
        free = [rep for rep, e in zip(pres.reps, pres.order_exps) if e == k]
        assert pres.order_exps[pres.rank - len(free) :] == (k,) * len(free)
        assert all(sorted(rep) == [0] * (n - 1) + [1] for rep in free)
        assert len({rep.index(1) for rep in free}) == len(free)


def test_subquotient_presentation_z4():
    # submodule of (Z/4)^2 generated by (2,0) and (0,1), relations (0,2)
    pres = subquotient_presentation([(2, 0), (0, 1)], [(0, 2)], 2, 4)
    # classes: (2,0) has order 2, (0,1) has order 2 after the relation
    assert sorted(pres.order_exps) == [1, 1]
    assert pres.size == 4
    assert pres.coords((2, 0)) != (0,) * pres.rank
    assert pres.coords((0, 2)) == (0,) * pres.rank


def test_subquotient_rejects_outside_vectors():
    pres = subquotient_presentation([(2, 0)], [], 2, 4)
    with pytest.raises(UserInputError):
        pres.coords((1, 1))
