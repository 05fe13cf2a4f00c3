import itertools
import math
import random

import pytest

from kq.chain_algebra import (
    ChainAlgebra,
    GradedModule,
    NatSystem,
    homology,
    pair_basis,
    tensor_d,
    _unit_named,
    truncate,
)
from kq.cubical import point_ball
from kq.documents import algebra_to_dict, parse_algebra
from kq.errors import UserInputError
from kq.track import apply_q_linear, class_matrix, compose, pt_morphism

from conftest import make_massey_algebra
from test_closed_form import universal
from track_helpers import enumerate_nat


def _after(nat, g, f):
    """The class matrix of g after f, two maps over the point, with the tower's product."""
    cell = f.ball.basis.cells()[0]
    sums = [apply_q_linear(g.Q, g.images(cell), f.value(cell, i))[0] for i in range(f.src.size)]
    return class_matrix(nat, f.src, g.dst, sums)


def _as_map(nat, elem):
    """The map over the point given by the representative cycles of elem."""
    entries = {(j, i): dict(h.rep) for j, i, h in elem.entries}
    return pt_morphism(point_ball(), nat.Q, elem.src, elem.dst, entries)


def test_unit_algebra_is_valid(unit_algebra):
    assert unit_algebra.validate() == []
    h0 = homology(unit_algebra, 0)
    assert h0.size(0) == 2  # H_0 in degree 0 is Z/2
    assert homology(unit_algebra, 1).size(0) == 1


def test_massey_algebra_is_valid(massey_algebra):
    assert massey_algebra.validate() == []


def test_z4_algebra_is_valid(z4_algebra):
    assert z4_algebra.validate() == []


def test_broken_differential_reports_witness(massey_algebra):
    # d(ay) = 0 breaks Leibniz for the pair (a, y)
    q = make_massey_algebra()
    q.diff["ay"] = {}
    report = q.validate()
    assert any(v["axiom"] == "leibniz" and v["witness"] == ("a", "y") for v in report)


def test_dsquared_violation_witness():
    elements = [("1", 0, 0), ("u", 1, 0), ("v", 1, 1), ("w", 1, 2)]
    diff = {"v": {"u": 1}, "w": {"v": 1}}
    q = ChainAlgebra(2, 2, 2, elements, "1", diff, {})
    report = q.validate()
    assert any(v["axiom"] == "d_squared" and v["witness"] == ("w",) for v in report)


def test_homology_of_massey_algebra(massey_algebra):
    h0 = homology(massey_algebra, 0)
    # degree 0: the unit survives; degree 1: a, b, c survive
    assert h0.size(0) == 2
    assert h0.size(1) == 8
    # degree 2: ab and bc are killed by x and y
    assert h0.size(2) == 1
    assert h0.size(3) == 1
    h1 = homology(massey_algebra, 1)
    assert h1.size(2) == 1
    assert h1.size(3) == 2
    cls = h1.class_of({"ay": 1, "xc": 1}, 3)
    assert not cls.is_zero()
    assert h1.class_of({}, 3).is_zero()
    # ay alone is not a cycle
    with pytest.raises(Exception):
        h1.presentation(3).coords([1, 0])


def test_homology_z4_torsion(z4_algebra):
    h0 = homology(z4_algebra, 0)
    # degree 2: <b> / <2b> is Z/2
    assert h0.size(2) == 2
    assert h0.presentation(2).order_exps == (1,)
    h1 = homology(z4_algebra, 1)
    # degree 2: cycles <2x> with no boundaries
    assert h1.size(2) == 2
    cls = h1.class_of({"x": 2}, 2)
    assert not cls.is_zero()


def test_truncate_identity(massey_algebra):
    assert truncate(massey_algebra, 1) is massey_algebra


def test_truncate_kills_named_boundary():
    # Q2 = <w> with dw = v: the level-1 part of Q(1) is Q1/<v>
    elements = [("1", 0, 0), ("u", 1, 0), ("v", 1, 1), ("t", 1, 1), ("w", 1, 2)]
    diff = {"t": {"u": 1}, "w": {"v": 1}}
    q = ChainAlgebra(2, 2, 2, elements, "1", diff, {})
    assert q.validate() == []
    q1 = truncate(q, 1)
    assert q1.validate() == []
    assert len(q1.basis_at(1, 1)) == 1  # only one class survives
    assert set(q1.basis_at(1, 0)) == {"u"}


def test_truncate_massey_to_homology(massey_algebra):
    q0 = truncate(massey_algebra, 0)
    assert q0.validate() == []
    h0 = homology(massey_algebra, 0)
    for r in range(massey_algebra.r_max + 1):
        assert len(q0.basis_at(r, 0)) == h0.presentation(r).rank
    # multiplication agrees with the H0 algebra: [a][b] = [ab] = 0
    prod, _ = q0.elem_mul({"a": 1}, {"b": 1})
    assert prod == {}
    # and H0 of the truncation is the same as level-0 homology of q0 itself
    h0_trunc = homology(q0, 0)
    for r in range(q0.r_max + 1):
        assert h0_trunc.size(r) == h0.size(r)


def test_truncate_twice_matches_direct():
    elements = [("1", 0, 0), ("u", 1, 0), ("v", 1, 1), ("t", 1, 1), ("w", 1, 2)]
    diff = {"t": {"u": 1}, "w": {"v": 1}}
    q = ChainAlgebra(2, 2, 2, elements, "1", diff, {})
    a = truncate(truncate(q, 1), 0)
    b = truncate(q, 0)
    for r in range(q.r_max + 1):
        assert len(a.basis_at(r, 0)) == len(b.basis_at(r, 0))


def test_truncation_homology_stable_below_top():
    elements = [("1", 0, 0), ("u", 1, 0), ("v", 1, 1), ("t", 1, 1), ("w", 1, 2)]
    diff = {"t": {"u": 1}, "w": {"v": 1}}
    q = ChainAlgebra(2, 2, 2, elements, "1", diff, {})
    q1 = truncate(q, 1)
    for k in range(1):
        h_full = homology(q, k)
        h_trunc = homology(q1, k)
        for r in range(q.r_max + 1):
            assert h_full.size(r) == h_trunc.size(r)


def test_truncate_keeps_the_products_below_the_top_level():
    # a*x = ax is cut with x; the products of level-0 elements survive
    elements = [("1", 0, 0), ("a", 1, 0), ("b", 1, 0), ("ab", 2, 0), ("a2", 2, 0), ("x", 2, 1), ("ax", 3, 1)]
    mul = {("a", "b"): {"ab": 1}, ("a", "a"): {"a2": 1}, ("a", "x"): {"ax": 1}}
    q = ChainAlgebra(2, 1, 3, elements, "1", {}, mul)
    assert q.validate() == []
    assert algebra_to_dict(truncate(q, 0))["products"] == [
        {"left": "a", "right": "a", "to": [{"gen": "a2", "coeff": 1}]},
        {"left": "a", "right": "b", "to": [{"gen": "ab", "coeff": 1}]},
    ]


def _truncation_or_error(q, level):
    try:
        return algebra_to_dict(truncate(q, level))
    except UserInputError as exc:
        return str(exc), exc.detail


@pytest.mark.parametrize("free_cycle", [False, True])
@pytest.mark.parametrize("modulus", [2, 3, 4, 9])
@pytest.mark.parametrize("order", [2, 3])
def test_truncate_multiplies_every_pair_that_can_be_nonzero(order, modulus, free_cycle):
    # truncate reads only the declared products; with every pair's product
    # declared as mul_of gives it, unit rows included, it must find nothing more
    q, _ = parse_algebra(universal.algebra_doc(order, modulus, random.Random(10 * order + modulus), free_cycle))
    declared = [_truncation_or_error(q, level) for level in range(order)]
    q.mul = {(a, b): q.mul_of(a, b)[0] for a in q.names for b in q.names}
    assert [_truncation_or_error(q, level) for level in range(order)] == declared


@pytest.mark.parametrize("root", [False, True])
@pytest.mark.parametrize("modulus", [2, 3, 9])
def test_truncate_to_level_0_keeps_the_unit(modulus, root):
    # d(t) = 1 + e makes [1] = -[e], and e*e = -e; Smith pivoting keeps e free, and the unit must
    # take its place.  With root, f*f = e = -1 and e*f = f*e = -f: the product is read in the new basis
    elements = [("1", 0, 0), ("e", 0, 0), ("t", 0, 1)]
    mul = {("e", "e"): {"e": modulus - 1}}
    if root:
        elements.append(("f", 0, 0))
        mul.update({("f", "f"): {"e": 1}, ("e", "f"): {"f": modulus - 1}, ("f", "e"): {"f": modulus - 1}})
    q = ChainAlgebra(modulus, 1, 0, elements, "1", {"t": {"1": 1, "e": 1}}, mul)
    assert q.validate() == []
    q0 = truncate(q, 0)
    assert q0.validate() == []
    assert q0.basis_at(0, 0) == (("1", "f") if root else ("1",))
    if root:
        assert q0.mul_of("f", "f") == ({"1": modulus - 1}, False)
    before, after = homology(q, 0), homology(q0, 0)
    free = (2 if modulus == 9 else 1,) * (1 + root)
    assert after.presentation(0).order_exps == before.presentation(0).order_exps == free
    # the unit's class is a basis element on both sides, and in the original [e] = -[1]
    for h in (before, after):
        assert any(math.gcd(c, modulus) == 1 for c in h.class_of({"1": 1}, 0).coords)
    assert before.class_of({"e": 1}, 0).coords == before.class_of({"1": modulus - 1}, 0).coords


@pytest.mark.parametrize("modulus, unit", [(3, (2, 1)), (9, (3, 1)), (9, (0, 0))])
def test_unit_named_reads_coordinates_in_the_new_basis(modulus, unit):
    # old coordinates are the vector itself and the unit is unit[0] e + unit[1] f: it replaces
    # the first name whose coefficient is invertible, and a vector is the sum of its new coordinates
    coords, free = _unit_named(tuple, ["e", "f"], "1", unit, modulus)
    j = next((t for t, u in enumerate(unit) if math.gcd(u, modulus) == 1), None)
    assert free == ["1" if t == j else name for t, name in enumerate(["e", "f"])]
    basis = [unit if t == j else tuple(int(s == t) for s in range(2)) for t in range(2)]
    for x in itertools.product(range(modulus), repeat=2):
        new = coords(list(x))
        assert tuple(sum(c * b[s] for c, b in zip(new, basis)) % modulus for s in range(2)) == x


def test_torsion_truncation_rejected():
    # over Z/4, d(w) = 2v leaves a Z/2 class at the top level
    elements = [("1", 0, 0), ("v", 1, 1), ("w", 1, 2)]
    diff = {"w": {"v": 2}}
    q = ChainAlgebra(4, 2, 2, elements, "1", diff, {})
    assert q.validate() == []
    with pytest.raises(UserInputError):
        truncate(q, 1)


def test_pair_basis_and_tensor_d(massey_algebra):
    L = GradedModule.of([("l0", 0), ("l1", 1)])
    basis = pair_basis(L, massey_algebra, 2, 1)
    # degree-2 lower-1 slots: l0 x {x,y}, l1 x nothing at r=1
    assert basis == [(0, "x"), (0, "y")]
    assert tensor_d(massey_algebra, {(0, "x"): 1}) == {(0, "ab"): 1}
    assert tensor_d(massey_algebra, {(0, "x"): 1, (1, "y"): 1}) == {(0, "ab"): 1, (1, "bc"): 1}
    assert massey_algebra.elem_mul({"x": 1}, {"c": 1}) == ({"xc": 1}, False)


def test_elem_mul_flags_window_escape(massey_algebra):
    # degree 5 > r_max = 4: the product is cut to zero and flagged
    assert massey_algebra.elem_mul({"abc": 1}, {"ab": 1}) == ({}, True)


def test_nat_system_actions(massey_algebra):
    L0 = GradedModule.of([("w", 0)])
    L2 = GradedModule.of([("z", 2)])
    L3 = GradedModule.of([("t", 3)])
    nat = NatSystem(massey_algebra, 1)
    # the class of y as an entry L2 -> L0 hits H_1 in degree 2 which is 0
    assert nat.size(L2, L0) == 1
    # entries L3 -> L0 live in H_1 degree 3 of size 2
    assert nat.size(L3, L0) == 2
    elem = nat.from_cycles(L3, L0, {(0, 0): {"ay": 1, "xc": 1}})
    assert not elem.is_zero()
    # acting by the identity and by zero
    ident = pt_morphism(point_ball(), massey_algebra, L0, L0, {(0, 0): {"1": 1}})
    zero = pt_morphism(point_ball(), massey_algebra, L0, L0, {})
    assert _after(nat, ident, _as_map(nat, elem)).coords_key() == elem.coords_key()
    assert _after(nat, zero, _as_map(nat, elem)).is_zero()
    # acting by [a] on the class of [y] in D^1(L3, L1) gives [ay] which is
    # the class of ay = abc-boundary partner; check via representatives
    L1 = GradedModule.of([("u", 1)])
    ymap = nat.from_cycles(L3, L1, {(0, 0): {"y": 1}})
    # y is not a cycle, so this must raise through the presentation
    assert ymap.is_zero() or True  # y has trivial H_1 degree-2 image? no:
    # H_1 in degree (3-1)=2 is zero, so the class collapses
    assert ymap.is_zero()


def test_nat_bilinearity_small(z4_algebra):
    nat = NatSystem(z4_algebra, 1)
    L0 = GradedModule.of([("w", 0)])
    L2 = GradedModule.of([("z", 2)])
    elems = list(enumerate_nat(nat, L2, L0))
    assert len(elems) == nat.size(L2, L0) == 2
    a, b = elems
    s = nat.add(a, b)
    assert s.coords_key() == nat.add(b, a).coords_key()
    # (e + e) = 2e and the entries have order 2
    twice = nat.add(a, a)
    assert twice.is_zero()


def test_composite_action_law(massey_algebra):
    # (fg)^* = g^* f^* on representatives
    nat = NatSystem(massey_algebra, 1)
    pt = point_ball()
    L0 = GradedModule.of([("w", 0)])
    L3 = GradedModule.of([("t", 3)])
    elem = nat.from_cycles(L3, L0, {(0, 0): {"ay": 1, "xc": 1}})
    Lm = GradedModule.of([("u1", 3), ("u2", 3)])
    Ln = GradedModule.of([("v1", 3), ("v2", 3)])
    f = pt_morphism(pt, massey_algebra, Lm, L3, {(0, 0): {"1": 1}, (0, 1): {"1": 1}})
    g = pt_morphism(pt, massey_algebra, Ln, Lm, {(0, 0): {"1": 1}, (0, 1): {"1": 1}, (1, 1): {"1": 1}})
    one_step = _after(nat, _as_map(nat, elem), compose(f, g))
    two_step = _after(nat, _as_map(nat, _after(nat, _as_map(nat, elem), f)), g)
    assert one_step.coords_key() == two_step.coords_key()
    # g(v1) = u1 and g(v2) = u1 + u2, so f g = (t, 2t) = (t, 0) over Z/2
    assert [(j, i) for j, i, _ in one_step.entries] == [(0, 0)]
