"""truncate against the version that lifted each kept name and searched its partners.

truncate keeps the names below the level and the free names at the level,
and reads its structure constants off the tables of Q.  The reference below
wrote each kept name as a unit vector, recomputed its differential and its
products with elem_d and elem_mul over the pairs partners() admits, and
projected them back.  The two must give the same algebra, or the same error
with the same message and detail.  The reference is also driven with every
name a partner of every name, so that its pair search cannot hide a product.
"""

import json
import random
from collections import defaultdict
from pathlib import Path

import pytest

from kq.chain_algebra import ChainAlgebra, d_vectors, truncate
from kq.documents import algebra_to_dict, parse_algebra
from kq.errors import InternalInvariantError, UserInputError
from kq.exact_linalg import prime_power, quotient_presentation
from test_closed_form import universal
from test_golden_stdout import HAND_TRUNCATIONS
from test_validate_reference import _unit_row_cases

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def reference_truncate(Q, n2):
    """truncate as it was, with a lift table and a partner search."""
    if not 0 <= n2 <= Q.n:
        raise UserInputError(f"cannot truncate {Q.n}-truncated algebra to level {n2}")
    if n2 == Q.n:
        return Q
    _, k = prime_power(Q.m)
    elements = []
    lifts = {}  # new basis name -> (representative in Q, r, s)
    for name in Q.names:
        r, s = Q.bidegree[name]
        if s < n2:
            elements.append((name, r, s))
            lifts[name] = {name: 1}, r, s
    projections = {}
    for r in range(Q.r_max + 1):
        basis = Q.basis_at(r, n2)
        if not basis:
            continue
        rels = [vec for vec in d_vectors(Q, r, n2) if any(vec)]
        pres = quotient_presentation(len(basis), rels, Q.m)
        if any(e != k for e in pres.order_exps):
            raise UserInputError(
                f"truncation level {n2} is not free in upper degree {r}",
                detail={"r": r, "order_exponents": list(pres.order_exps)},
            )
        projections[r] = (basis, pres)
        for rep in pres.reps:  # a unit vector, since every generator is free
            name = basis[rep.index(1)]
            elements.append((name, r, n2))
            lifts[name] = {name: 1}, r, n2

    names_at = {}
    for name, r, s in elements:
        names_at.setdefault((r, s), []).append(name)

    def project(vec, r, s):
        """Express a vector of the original algebra in the new basis."""
        out = {}
        if s < n2:
            for x, v in vec.items():
                out[x] = (out.get(x, 0) + v) % Q.m
        elif s == n2 and r in projections:
            basis, pres = projections[r]
            dense = [vec.get(x, 0) % Q.m for x in basis]
            for idx, c in enumerate(pres.coords(dense)):
                if c:
                    name = names_at[(r, n2)][idx]
                    out[name] = c
        return {x: v for x, v in out.items() if v}

    diff = {}
    mul = {}
    new_names = [e[0] for e in elements]
    for name in new_names:
        vec, r, s = lifts[name]
        if s == 0:
            continue
        img = Q.elem_d(vec)
        row = project(img, r, s - 1)
        if row:
            diff[name] = row
    # only the pairs whose lifts contain partners can have a nonzero product
    partners = Q.partners()
    lifted_in = defaultdict(set)  # old basis name -> the new names whose lift contains it
    for name in new_names:
        for x in lifts[name][0]:
            lifted_in[x].add(name)
    position = {name: t for t, name in enumerate(new_names)}
    for a in new_names:
        va, ra, sa = lifts[a]
        near = {b for x in va for y in partners[x] for b in lifted_in[y]}
        for b in sorted(near, key=position.__getitem__):
            vb, rb, sb = lifts[b]
            if a == Q.unit or b == Q.unit or ra + rb > Q.r_max or sa + sb > n2:
                continue
            prod, _ = Q.elem_mul(va, vb)
            row = project(prod, ra + rb, sa + sb)
            if row:
                mul[(a, b)] = row
    out = ChainAlgebra(Q.m, n2, Q.r_max, elements, Q.unit, diff, mul)
    bad = out.validate()
    if bad:
        raise InternalInvariantError(f"truncation produced an invalid algebra: {bad[:3]}")
    return out


def outcome(fn, q, level):
    """The truncation as a document, or the error's type, message and detail."""
    try:
        return algebra_to_dict(fn(q, level))
    except (UserInputError, InternalInvariantError) as exc:
        return type(exc).__name__, str(exc), exc.detail


def assert_matches_reference(q, monkeypatch):
    """truncate at every level below q.n equals the reference, with its partners and with every pair."""
    for level in range(q.n):
        want = outcome(reference_truncate, q, level)
        assert outcome(truncate, q, level) == want
        with monkeypatch.context() as patch:
            # only q's own search widens; the truncation's validate keeps its pruned one
            patch.setattr(q, "partners", lambda: defaultdict(set, {x: set(q.names) for x in q.names}))
            assert outcome(reference_truncate, q, level) == want


@pytest.mark.parametrize("free_cycle", [False, True])
@pytest.mark.parametrize("modulus", [2, 3, 4, 5, 9])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_universal_algebras_match_reference(order, modulus, free_cycle, monkeypatch):
    doc = universal.algebra_doc(order, modulus, random.Random(100 * modulus + 10 * order + free_cycle), free_cycle)
    assert_matches_reference(parse_algebra(doc)[0], monkeypatch)


@pytest.mark.parametrize("name", ["massey_algebra", "unit_algebra", "broken_d_squared"])
def test_fixtures_match_reference(name, monkeypatch):
    doc = json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))
    assert_matches_reference(parse_algebra(doc)[0], monkeypatch)


@pytest.mark.parametrize("doc", [doc for _, doc, _ in HAND_TRUNCATIONS], ids=[label for label, _, _ in HAND_TRUNCATIONS])
def test_hand_made_truncations_match_reference(doc, monkeypatch):
    q, violations = parse_algebra(doc)
    assert violations == []
    assert_matches_reference(q, monkeypatch)


@pytest.mark.parametrize("label", sorted(_unit_row_cases()))
def test_unit_rows_match_reference(label):
    # a b with d(b) = 1 kills the unit at level 0, the only level below q.n: the truncation there is
    # the zero algebra, which the reference reported as a unit missing from its basis
    q = _unit_row_cases()[label]
    assert q.n == 1
    assert outcome(reference_truncate, q, 0) == ("UserInputError", "unit '1' is not a basis element", {})
    zero = "the level-0 truncation is the zero algebra: the class of the unit vanishes"
    assert outcome(truncate, q, 0) == ("UserInputError", zero, {})
