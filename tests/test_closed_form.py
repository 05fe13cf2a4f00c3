"""Brackets of the universal n-fold Massey algebra against their closed form.

The order-n bracket of the N = n + 2 one-letter maps, the t-th multiplied by
the unit u_t, is the class of (u_1 ... u_N) * sum_k (-1)^(k-1) [1,k][k+1,N].
"""

import importlib.util
import random
from pathlib import Path

import pytest

from kq.chain_algebra import NatSystem
from kq.documents import nat_to_dict, parse_algebra, parse_sequence
from kq.toda import toda_bracket

_spec = importlib.util.spec_from_file_location(
    "universal", Path(__file__).resolve().parent.parent / "bench" / "universal.py"
)
universal = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(universal)


@pytest.mark.parametrize("modulus", [2, 3, 4, 5])
@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_bracket_matches_closed_form(order, modulus):
    rng = random.Random(1000 * modulus + order)
    doc = universal.algebra_doc(order, modulus, rng)
    units = universal.draw_units(order, modulus, rng)
    algebra, violations = parse_algebra(doc)
    assert violations == []
    seq = parse_sequence(universal.sequence_doc(order, units), algebra)
    res = toda_bracket(algebra, seq, order, nat=NatSystem(algebra, order))
    assert res.status == "defined"
    entries = nat_to_dict(res.representative)["entries"]
    cycle = {t["gen"]: t["coeff"] for t in entries[0]["value"]["cycle"]} if entries else {}
    assert cycle == universal.closed_form(order, modulus, units)
