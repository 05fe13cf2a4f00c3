"""ChainAlgebra.validate against the exhaustive Leibniz and associativity loops.

validate visits only the pairs and triples in which some product can be
nonzero, and none with the unit in it when the sections before Leibniz
reported no unit entry and d(1) = 0, whatever else they reported.  The
reference below visits every pair and triple, so the two reports must agree
entry for entry, order included.
"""

import importlib.util
import random
from pathlib import Path

import pytest

from conftest import make_massey_algebra
from kq.chain_algebra import ChainAlgebra, vec_add
from kq.documents import parse_algebra
from test_acceptance import broken_variants

_spec = importlib.util.spec_from_file_location(
    "universal", Path(__file__).resolve().parent.parent / "bench" / "universal.py"
)
universal = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(universal)


def exhaustive_leibniz_associativity(q):
    """The Leibniz and associativity violations, every pair and triple visited."""
    report = []

    def bad(axiom, witness, detail):
        report.append({"axiom": axiom, "witness": witness, "detail": detail})

    for a in q.names:
        ra, sa = q.bidegree[a]
        for b in q.names:
            rb, sb = q.bidegree[b]
            if ra + rb > q.r_max or sa + sb > q.n + 1:
                continue
            ab, _ = q.mul_of(a, b)
            lhs = q.elem_d(ab)
            da_b, _ = q.elem_mul(q.d_of(a), {b: 1})
            a_db, _ = q.elem_mul({a: 1}, q.d_of(b))
            sign = -1 if sa % 2 else 1
            rhs = vec_add(da_b, a_db, scale=sign, m=q.m)
            if lhs != rhs:
                bad("leibniz", (a, b), f"d({a}*{b}) = {lhs} but Leibniz gives {rhs}")

    for a in q.names:
        ra, sa = q.bidegree[a]
        for b in q.names:
            rb, sb = q.bidegree[b]
            if ra + rb > q.r_max or sa + sb > q.n:
                continue
            ab, _ = q.mul_of(a, b)
            for c in q.names:
                rc, sc = q.bidegree[c]
                if ra + rb + rc > q.r_max or sa + sb + sc > q.n:
                    continue
                bc, _ = q.mul_of(b, c)
                left, _ = q.elem_mul(ab, {c: 1})
                right, _ = q.elem_mul({a: 1}, bc)
                if left != right:
                    bad("associativity", (a, b, c), f"({a}*{b})*{c} = {left} but {a}*({b}*{c}) = {right}")
    return report


def reference(q):
    """validate's report with its last two sections recomputed exhaustively.

    The degree, d^2 and unit sections come first and are not restricted, so
    they are taken from validate itself.
    """
    head = [v for v in q.validate() if v["axiom"] not in ("leibniz", "associativity")]
    return head + exhaustive_leibniz_associativity(q)


def _algebra(doc):
    return parse_algebra(doc)[0]


@pytest.mark.parametrize("free_cycle", [False, True])
@pytest.mark.parametrize("modulus", [2, 3, 4, 5, 9])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_universal_algebras_match_reference(order, modulus, free_cycle):
    rng = random.Random(1000 * order + 10 * modulus + free_cycle)
    doc = universal.algebra_doc(order, modulus, rng, free_cycle=free_cycle)
    q = _algebra(doc)
    assert q.validate() == reference(q) == []
    for _ in range(3):
        bad = _algebra(universal.corrupt(doc, rng))
        want = reference(bad)
        assert any(v["axiom"] in ("leibniz", "associativity") for v in want)
        # universal.corrupt changes no unit row and not d(1), so the unit is skipped whatever else failed
        report, calls = mul_of_calls(bad)
        assert report == want
        assert all(v["axiom"] != "unit" for v in report)
        assert unit_calls(bad, calls) == []


def corrupt_products(doc, rng):
    """A copy with one product dropped or one product coefficient changed.

    The differential, the basis and the unit rows are untouched, so the
    sections before Leibniz stay clean and validate skips the unit rows.
    """
    m = doc["modulus"]
    products = [dict(e) for e in doc["products"]]
    t = rng.randrange(len(products))
    if rng.random() < 0.5:
        del products[t]
    else:
        terms = [dict(x) for x in products[t]["to"]]
        term = rng.choice(terms)
        term["coeff"] = (term["coeff"] + rng.randrange(1, m)) % m
        products[t]["to"] = terms
    return {**doc, "products": products}


@pytest.mark.parametrize("free_cycle", [False, True])
@pytest.mark.parametrize("modulus", [2, 3, 4, 5, 9])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_product_corruptions_match_reference(order, modulus, free_cycle):
    rng = random.Random(2000 * order + 10 * modulus + free_cycle)
    doc = universal.algebra_doc(order, modulus, rng, free_cycle=free_cycle)
    for _ in range(3):
        bad = _algebra(corrupt_products(doc, rng))
        want = reference(bad)
        assert want and all(v["axiom"] in ("leibniz", "associativity") for v in want)
        assert bad.validate() == want


def mul_of_calls(q):
    """validate's report and the (x, y) of each mul_of call it makes after the unit section."""
    calls = []
    real = q.mul_of

    def spy(x, y):
        calls.append((x, y))
        return real(x, y)

    q.mul_of = spy
    report = q.validate()
    unit_section = [pair for x in q.names for pair in ((q.unit, x), (x, q.unit))]
    assert calls[: len(unit_section)] == unit_section
    return report, calls[len(unit_section) :]


def unit_calls(q, calls):
    return [pair for pair in calls if q.unit in pair]


@pytest.mark.parametrize("free_cycle", [False, True])
@pytest.mark.parametrize("modulus", [2, 9])
@pytest.mark.parametrize("order", [1, 3])
def test_valid_algebra_skips_the_unit_rows(order, modulus, free_cycle):
    q = _algebra(universal.algebra_doc(order, modulus, random.Random(order + modulus), free_cycle=free_cycle))
    report, calls = mul_of_calls(q)
    assert report == [] and calls
    assert unit_calls(q, calls) == []


def corrupt_d_squared(doc):
    """A copy whose d(d(a)) is nonzero for the first a whose d hits an x with d(x) != 0.

    The coefficient of that x in d(a) is raised by 1, so d(d(a)) changes by d(x).
    """
    m = doc["modulus"]
    hit = {e["from"] for e in doc["differential"]}
    diff = [dict(e) for e in doc["differential"]]
    entry = next(e for e in diff if any(t["gen"] in hit for t in e["to"]))
    t = next(i for i, term in enumerate(entry["to"]) if term["gen"] in hit)
    entry["to"] = [dict(term) for term in entry["to"]]
    entry["to"][t]["coeff"] = (entry["to"][t]["coeff"] + 1) % m
    return {**doc, "differential": diff}


@pytest.mark.parametrize("free_cycle", [False, True])
@pytest.mark.parametrize("modulus", [2, 9])
@pytest.mark.parametrize("order", [2, 3])
def test_d_squared_failure_skips_the_unit_rows(order, modulus, free_cycle):
    doc = universal.algebra_doc(order, modulus, random.Random(order + modulus), free_cycle=free_cycle)
    q = _algebra(corrupt_d_squared(doc))
    report, calls = mul_of_calls(q)
    assert report == reference(q)
    assert "d_squared" in {v["axiom"] for v in report}
    assert calls and unit_calls(q, calls) == []


def test_nonzero_d_of_the_unit_keeps_the_unit_rows():
    # d(1) = a breaks Leibniz for (1, a), (a, 1) and (1, 1) through a*a = aa and d(1) = a,
    # while 1*x = x = x*1 still holds for every x: only d(1) tells these pairs apart
    elements = [("1", 0, 0), ("a", 1, 0), ("aa", 2, 0)]
    q = ChainAlgebra(3, 1, 2, elements, "1", {"1": {"a": 1}}, {("a", "a"): {"aa": 1}})
    report, calls = mul_of_calls(q)
    assert report == reference(q)
    assert all(v["axiom"] != "unit" for v in report)
    leibniz = {v["witness"] for v in report if v["axiom"] == "leibniz"}
    assert {("1", "a"), ("a", "1"), ("1", "1")} <= leibniz
    assert unit_calls(q, calls)


def test_unit_rows_are_read_where_they_can_fail():
    # b with d(b) = 1: the pair (a, b) reads a*1
    report, calls = mul_of_calls(_unit_hit_algebra())
    assert report == []
    assert ("a", "1") in calls
    # a broken unit row is reported before Leibniz, so every unit row is checked
    q = make_massey_algebra()
    q.mul[("1", "a")] = {}
    report, calls = mul_of_calls(q)
    assert report and report == reference(q)
    assert [x for x in q.names if ("1", x) in calls] == list(q.names)


@pytest.mark.parametrize("index", range(len(broken_variants())))
def test_broken_variants_match_reference(index):
    q, _, _ = broken_variants()[index]
    assert q.validate() == reference(q)


def _pair_cases():
    """Hand-made breakages, each seen by one way a pair or triple can be nonzero."""
    out = {}

    # p and q are cycles but their declared product e is not: only the
    # product p*q itself makes d(p*q) nonzero.
    elements = [("1", 0, 0), ("p", 1, 0), ("q", 1, 1), ("e", 2, 1), ("f", 2, 0)]
    out["declared-product-of-cycles"] = ChainAlgebra(
        2, 1, 2, elements, "1", {"e": {"f": 1}}, {("p", "q"): {"e": 1}}
    )

    # a product that should be zero: b*a = ab breaks (b*a)*c = a*(b*c)
    q = make_massey_algebra()
    q.mul[("b", "a")] = {"ab": 1}
    out["declared-product-that-should-be-zero"] = q

    # x*c missing: only d(x)*c = ab*c is nonzero in Leibniz for (x, c)
    q = make_massey_algebra()
    del q.mul[("x", "c")]
    out["missing-product-seen-through-da"] = q

    # a*y missing: only a*d(y) = a*bc is nonzero in Leibniz for (a, y)
    q = make_massey_algebra()
    del q.mul[("a", "y")]
    out["missing-product-seen-through-db"] = q

    # 1*a = 0 breaks (1*a)*b = 1*(a*b), where 1*ab is only the unit law
    q = make_massey_algebra()
    q.mul[("1", "a")] = {}
    out["broken-left-unit-row"] = q

    # ab*1 = 0 breaks d(x*1) and (a*b)*1 = a*(b*1)
    q = make_massey_algebra()
    q.mul[("ab", "1")] = {}
    out["broken-right-unit-row"] = q
    return out


@pytest.mark.parametrize("label", sorted(_pair_cases()))
def test_hand_made_breakages_match_reference(label):
    q = _pair_cases()[label]
    want = reference(q)
    assert any(v["axiom"] in ("leibniz", "associativity") for v in want)
    assert q.validate() == want


def _declaration_cases():
    """Hand-made algebras whose declarations break a degree rule, with the entry each must give."""
    out = {}
    # the unit sits in bidegree (1,0)
    q = ChainAlgebra(2, 1, 2, [("1", 1, 0), ("a", 1, 0)], "1", {}, {})
    out["unit-outside-00"] = q, ("unit", ("1",), "unit must sit in bidegree (0,0)")
    # a*b lands in r = 3 > rMax = 2, and its declared value b does not add bidegrees either
    q = ChainAlgebra(2, 1, 2, [("1", 0, 0), ("a", 1, 0), ("b", 2, 0)], "1", {}, {("a", "b"): {"b": 1}})
    out["product-escapes-rmax"] = q, ("degree", ("a", "b"), "declared product escapes the upper-degree window")
    # x*y lands in s = 2 > n = 1
    elements = [("1", 0, 0), ("x", 1, 1), ("y", 1, 1), ("z", 2, 1)]
    q = ChainAlgebra(2, 1, 2, elements, "1", {}, {("x", "y"): {"z": 1}})
    out["product-above-truncation"] = q, ("truncation", ("x", "y"), "declared product lands above the truncation level")
    return out


@pytest.mark.parametrize("label", sorted(_declaration_cases()))
def test_declaration_violations_are_reported_once(label):
    q, (axiom, witness, detail) = _declaration_cases()[label]
    report = q.validate()
    assert report.count({"axiom": axiom, "witness": witness, "detail": detail}) == 1
    # an escaping or truncated product is not checked for its bidegrees as well
    assert [v for v in report if v["detail"] == "product does not add bidegrees"] == []
    assert report == reference(q)


def _unit_hit_algebra():
    """b in bidegree (0,1) with d(b) = 1, over Z/3.

    Leibniz for (a, b) reads d(a*b) = a*d(b) = a*1 = a, so the pair matters
    through the unit row a*1 and the b that hits the unit.
    """
    elements = [("1", 0, 0), ("b", 0, 1), ("a", 1, 0), ("c", 1, 1)]
    diff = {"b": {"1": 1}, "c": {"a": 1}}
    mul = {("a", "b"): {"c": 1}, ("b", "a"): {"c": 1}}
    return ChainAlgebra(3, 1, 1, elements, "1", diff, mul)


def _unit_row_cases():
    """Clean and corrupted algebras whose unit rows carry Leibniz or associativity."""
    out = {}
    q = _unit_hit_algebra()
    out["unit-hit-by-b"] = q
    # with a*b gone, (a, b) and (c, b) break Leibniz, and only b hitting the unit reaches them
    q = _unit_hit_algebra()
    del q.mul[("a", "b")]
    out["unit-hit-by-b-corrupted"] = q
    # with b*a gone, (b, a) breaks Leibniz through d(b)*a = 1*a = a
    q = _unit_hit_algebra()
    del q.mul[("b", "a")]
    out["unit-hit-by-b-left-factor-corrupted"] = q
    # declared products that restate unit rows override the default unit law
    q = _unit_hit_algebra()
    q.mul[("1", "c")] = {"c": 1}
    q.mul[("a", "1")] = {"a": 1}
    out["declared-unit-row"] = q
    q = _unit_hit_algebra()
    q.mul[("1", "c")] = {"c": 2}
    q.mul[("a", "1")] = {"a": 1}
    out["declared-unit-row-corrupted"] = q
    return out


@pytest.mark.parametrize("label", sorted(_unit_row_cases()))
def test_unit_rows_match_reference(label):
    q = _unit_row_cases()[label]
    want = reference(q)
    if label.endswith("-corrupted"):
        assert any(v["axiom"] in ("leibniz", "associativity") for v in want)
    else:
        assert want == []
    assert q.validate() == want
