"""triple_indeterminacy against the natural-system actions it replaced.

The reference below forms the indeterminacy products entry by entry with
ChainAlgebra.elem_mul and returns None when one of them crosses the degree
window.  The engine forms them with the tower's product, apply_q_linear, and
reads the classes with class_matrix.  Both must give the same generator list,
or both None, on random bracket instances and on window-cut copies of them.
"""

import random

import pytest

from kq.chain_algebra import NatSystem, vec_add
from kq.documents import algebra_to_dict, parse_algebra, parse_sequence
from kq.errors import UserInputError
from kq.toda import triple_indeterminacy

from randalg import bracket_instances, random_valid_algebra, sequence_doc
from test_closed_form import universal
from test_golden_stdout import window_cut


def _pt_entries(f):
    cell = f.ball.basis.cells()[0]
    out = {}
    for i in range(f.src.size):
        for (j, q), c in f.value(cell, i).items():
            out.setdefault((j, i), {})[q] = c
    return out


def _act(nat, elem, matrix, new_src, new_dst, post):
    """Compose elem with an H0 matrix of degree-0 cycles; None on a window cut.

    post: matrix maps elem.dst -> new_dst and acts on the left; otherwise it
    maps new_src -> elem.src and acts on the right.
    """
    out = {}
    for j, i, h in elem.entries:
        for (a, b), q in matrix.items():
            if (b if post else a) != (j if post else i):
                continue
            if post:
                prod, flag = nat.Q.elem_mul(q, dict(h.rep))
                key = (a, i)
            else:
                prod, flag = nat.Q.elem_mul(dict(h.rep), q)
                key = (j, b)
            if flag:
                return None
            out[key] = vec_add(out.get(key, {}), prod, m=nat.Q.m)
    return nat.from_cycles(new_src, new_dst, out)


def reference_indeterminacy(Q, seq, nat):
    X0, X1, X2, X3 = seq.modules
    first = _pt_entries(seq.maps[0])
    last = _pt_entries(seq.maps[2])
    sides = (
        (X2, X0, lambda elem: _act(nat, elem, last, X3, X0, post=False)),
        (X3, X1, lambda elem: _act(nat, elem, first, X3, X0, post=True)),
    )
    gens = []
    for src, dst, act in sides:
        for j, i, r in nat.slots(src, dst):
            pres = nat.hom.presentation(r)
            for t in range(pres.rank):
                h = nat.hom.class_from_coords(r, tuple(int(s == t) for s in range(pres.rank)))
                img = act(nat.from_cycles(src, dst, {(j, i): dict(h.rep)}))
                if img is None:
                    return None
                if not img.is_zero():
                    gens.append(img)
    seen = {}
    for g in gens:
        seen.setdefault(g.coords_key(), g)
    return [seen[k] for k in sorted(seen)]


def _same(Q, seq):
    nat = NatSystem(Q, 1)
    got = triple_indeterminacy(Q, seq, nat=nat)
    want = reference_indeterminacy(Q, seq, nat)
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert [g.coords_key() for g in got] == [g.coords_key() for g in want]
    return want


def _instances(seeds):
    for seed in seeds:
        rng = random.Random(seed)
        q = random_valid_algebra(rng)
        for seq in bracket_instances(q, rng):
            yield q, seq


def test_random_instances_match_reference():
    nonempty = 0
    for q, seq in _instances(range(30)):
        nonempty += bool(_same(q, seq))
    assert nonempty >= 10


def test_window_cut_instances_match_reference():
    cut = compared = 0
    for q, seq in _instances(range(0, 30, 3)):
        for r_max in range(1, q.r_max):
            qc, violations = parse_algebra(window_cut(algebra_to_dict(q), r_max))
            if violations:
                continue
            try:
                seqc = parse_sequence(sequence_doc(seq), qc)
            except UserInputError:
                continue
            compared += 1
            cut += _same(qc, seqc) is None
    assert compared >= 20
    assert cut >= 5


@pytest.mark.parametrize("seed", [3, 5, 8])
def test_window_cut_universal_matches_reference(seed):
    rng = random.Random(seed)
    doc = window_cut(universal.algebra_doc(1, 2, rng, free_cycle=True), 2)
    q, violations = parse_algebra(doc)
    assert violations == []
    seq = parse_sequence(universal.sequence_doc(1, universal.draw_units(1, 2, rng)), q)
    _same(q, seq)
