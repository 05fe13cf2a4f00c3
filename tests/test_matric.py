"""Matric brackets above order 1 on the universal n-fold Massey algebra.

Every module has rank 2 on two generators of equal degree, and map t is a
matrix of scalars times the letter [t,t].  A direct sum of two one-letter
sequences has the diagonal of their closed forms as its bracket, and a
change of basis P_t in every module carries the bracket along: the maps
P_{t-1} A_t P_t^-1 have the bracket P_0 <A> P_N^-1 (naturality of matric
Massey products, May 1969).
"""

import functools
import math
import random

import pytest

from kq.chain_algebra import NatSystem
from kq.documents import parse_algebra
from kq.toda import oracle_bracket_set, toda_bracket
from kq.tower_cli import parse_sequence

from test_closed_form import universal


@functools.cache
def _algebra(order, modulus, free_cycle=False):
    doc = universal.algebra_doc(order, modulus, random.Random(1000 * modulus + order), free_cycle)
    algebra, violations = parse_algebra(doc)
    assert violations == []
    return algebra, NatSystem(algebra, order)


def _sequence(algebra, matrices):
    """The rank-2 sequence whose map t is matrices[t-1] times [t,t]."""
    modules = [
        {"name": f"X{t}", "generators": [{"name": f"x{t}", "r": t}, {"name": f"y{t}", "r": t}]}
        for t in range(len(matrices) + 1)
    ]
    maps = [
        {
            "from": f"X{t}",
            "to": f"X{t - 1}",
            "entries": [
                {"row": j, "col": i, "value": [{"gen": f"[{t},{t}]", "coeff": a}]}
                for j, row in enumerate(mat)
                for i, a in enumerate(row)
                if a
            ],
        }
        for t, mat in enumerate(matrices, 1)
    ]
    return parse_sequence({"modules": modules, "maps": maps}, algebra)


def _bracket(order, modulus, matrices):
    algebra, nat = _algebra(order, modulus)
    res = toda_bracket(algebra, _sequence(algebra, matrices), order, nat=nat)
    assert res.status == "defined"
    return res.representative


def _mul(a, b, m):
    return [[sum(a[j][s] * b[s][i] for s in range(2)) % m for i in range(2)] for j in range(2)]


def _inverse(a, m):
    det_inv = pow((a[0][0] * a[1][1] - a[0][1] * a[1][0]) % m, -1, m)
    return [[a[1][1] * det_inv % m, -a[0][1] * det_inv % m], [-a[1][0] * det_inv % m, a[0][0] * det_inv % m]]


def _invertible(rng, m):
    while True:
        a = [[rng.randrange(m) for _ in range(2)] for _ in range(2)]
        if math.gcd(a[0][0] * a[1][1] - a[0][1] * a[1][0], m) == 1:
            return a


def _transform(nat, left, elem, right):
    """left * elem * right for scalar matrices left and right, formed on the cycles."""
    m = nat.Q.m
    cycles = {}
    for a, b, h in elem.entries:
        for j in range(2):
            for i in range(2):
                c = left[j][a] * right[b][i] % m
                if not c:
                    continue
                acc = cycles.setdefault((j, i), {})
                for name, v in h.rep:
                    acc[name] = (acc.get(name, 0) + c * v) % m
    return nat.from_cycles(elem.src, elem.dst, cycles)


def _base_change(rng, m, maps):
    """Invertible P_0..P_N and the maps P_{t-1} A_t P_t^-1."""
    P = [_invertible(rng, m) for _ in range(len(maps) + 1)]
    changed = [_mul(_mul(P[t - 1], a, m), _inverse(P[t], m), m) for t, a in enumerate(maps, 1)]
    return P, changed


@pytest.mark.parametrize("modulus", [2, 3, 4, 5, 9])
@pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
def test_direct_sum_has_diagonal_bracket(order, modulus):
    rng = random.Random(7 * modulus + order)
    u = universal.draw_units(order, modulus, rng)
    v = universal.draw_units(order, modulus, rng)
    rep = _bracket(order, modulus, [[[a, 0], [0, b]] for a, b in zip(u, v)])
    cycles = {(j, i): dict(h.rep) for j, i, h in rep.entries}
    assert cycles == {
        (0, 0): universal.closed_form(order, modulus, u),
        (1, 1): universal.closed_form(order, modulus, v),
    }


@pytest.mark.parametrize("modulus", [2, 3, 4, 5, 9])
@pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
def test_base_change_is_natural(order, modulus):
    rng = random.Random(11 * modulus + order)
    _, nat = _algebra(order, modulus)
    maps = [_invertible(rng, modulus) for _ in range(order + 2)]
    P, changed = _base_change(rng, modulus, maps)
    expected = _transform(nat, P[0], _bracket(order, modulus, maps), _inverse(P[-1], modulus))
    assert not expected.is_zero()
    assert _bracket(order, modulus, changed).coords_key() == expected.coords_key()


@pytest.mark.parametrize("modulus", [2, 3])
def test_base_change_of_the_bracket_set(modulus):
    # order 1 with the free cycle, so each level-1 stage has free parameters
    algebra, nat = _algebra(1, modulus, free_cycle=True)
    rng = random.Random(modulus)
    maps = [_invertible(rng, modulus) for _ in range(3)]
    P, changed = _base_change(rng, modulus, maps)
    got = oracle_bracket_set(algebra, _sequence(algebra, changed), 1, nat=nat)
    original = oracle_bracket_set(algebra, _sequence(algebra, maps), 1, nat=nat)
    want = [_transform(nat, P[0], rep, _inverse(P[-1], modulus)) for rep in original]
    assert sorted(r.coords_key() for r in got) == sorted(r.coords_key() for r in want)
