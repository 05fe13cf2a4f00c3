"""Random valid 1-truncated monomial algebras and bracket instances.

Algebras are quotients of a free bigraded algebra on a few degree-0 letters
and one or two degree-1 letters by a monomial ideal (banned letter pairs,
length and upper-degree cutoffs), with the differential of a degree-1 letter
a random degree-0 combination extended multiplicatively.  Candidates are
kept only if the full axiom check passes, so every returned algebra is valid
by construction of the filter, not by hope.
"""

import itertools
import math
import random

from kq.chain_algebra import ChainAlgebra, GradedModule, homology
from kq.cubical import point_ball
from kq.oracle_support import solution_count
from kq.toda import MorphismSequence
from kq.track import compose, homotopic, pt_morphism, zero_morphism


def _random_candidate(rng):
    modulus = rng.choice([2, 2, 3, 4])
    n_letters = rng.randrange(2, 4)
    letters = [chr(ord("a") + t) for t in range(n_letters)]
    letter_deg = {x: rng.randrange(1, 3) for x in letters}
    n_xi = rng.randrange(1, 3)
    xis = [f"x{t}" for t in range(n_xi)]
    xi_deg = {x: rng.randrange(2, 4) for x in xis}
    max_len = 3
    r_max = 8
    banned = set()
    for pair in itertools.product(letters, repeat=2):
        if rng.random() < 0.45:
            banned.add(pair)

    def word_ok(word):
        if len(word) > max_len:
            return False
        deg = sum(letter_deg.get(x, xi_deg.get(x)) for x in word)
        if deg > r_max:
            return False
        for t in range(len(word) - 1):
            if (word[t], word[t + 1]) in banned:
                return False
        return sum(1 for x in word if x in xi_deg) <= 1
    words0 = [()]
    for length in range(1, max_len + 1):
        for w in itertools.product(letters, repeat=length):
            if word_ok(w):
                words0.append(w)
    words1 = []
    for w0 in words0:
        for xi in xis:
            for cut in range(len(w0) + 1):
                w = w0[:cut] + (xi,) + w0[cut:]
                if word_ok(w):
                    words1.append(w)
    words1 = sorted(set(words1))

    def name(w):
        return "1" if not w else ".".join(w)

    def deg(w):
        return sum(letter_deg.get(x, xi_deg.get(x)) for x in w)

    def lower(w):
        return sum(1 for x in w if x in xi_deg)

    elements = [(name(w), deg(w), lower(w)) for w in words0] + [
        (name(w), deg(w), lower(w)) for w in words1
    ]
    index = {tuple(w): name(w) for w in words0 + words1}

    def cut(word):
        return index.get(tuple(word))

    mul = {}
    for wa in words0 + words1:
        for wb in words0 + words1:
            if not wa or not wb:
                continue
            if lower(wa) + lower(wb) > 1:
                continue
            target = cut(wa + wb)
            if target is not None:
                mul[(name(wa), name(wb))] = {target: 1}
    # differentials of the xi letters, extended to monomials
    d_letter = {}
    for xi in xis:
        opts = [w for w in words0 if w and deg(w) == xi_deg[xi]]
        img = {}
        for w in opts:
            c = rng.randrange(0, modulus)
            if c:
                img[name(w)] = c
        d_letter[xi] = img
    diff = {}
    for w in words1:
        pos = next(t for t, x in enumerate(w) if x in xi_deg)
        u, xi, v = w[:pos], w[pos], w[pos + 1 :]
        img = {}
        for mono, c in d_letter[xi].items():
            full = u + tuple(mono.split(".")) + v
            target = cut(full)
            if target is not None:
                img[target] = (img.get(target, 0) + c) % modulus
        img = {k: v for k, v in img.items() if v}
        if img:
            diff[name(w)] = img
    return ChainAlgebra(modulus, 1, r_max, elements, "1", diff, mul)


def random_valid_algebra(rng, max_tries=200):
    for _ in range(max_tries):
        try:
            q = _random_candidate(rng)
        except Exception:
            continue
        if len(q.names) > 64:
            continue
        if q.validate() == []:
            return q
    raise AssertionError("could not generate a valid random algebra")


def bracket_instances(q, rng, want=3, max_checks=400, budget_cap=2**12):
    """Composable triples over q with nullhomotopic consecutive composites."""
    pt = point_ball()
    deg0 = [x for x in q.names if q.bidegree[x][1] == 0 and x != "1"]
    rng.shuffle(deg0)
    out = []
    checks = 0
    h1 = homology(q, 1)
    for u, v, w in itertools.product(deg0, repeat=3):
        checks += 1
        if checks > max_checks or len(out) >= want:
            break
        du = q.bidegree[u][0]
        dv = q.bidegree[v][0]
        dw = q.bidegree[w][0]
        if du + dv + dw > q.r_max:
            continue
        L0 = GradedModule.of([("g0", 0)])
        L1 = GradedModule.of([("g1", du)])
        L2 = GradedModule.of([("g2", du + dv)])
        L3 = GradedModule.of([("g3", du + dv + dw)])
        f1 = pt_morphism(pt, q, L1, L0, {(0, 0): {u: 1}})
        f2 = pt_morphism(pt, q, L2, L1, {(0, 0): {v: 1}})
        f3 = pt_morphism(pt, q, L3, L2, {(0, 0): {w: 1}})
        ok = True
        for a, b in ((f1, f2), (f2, f3)):
            ab = compose(a, b)
            wit, _ = homotopic(ab, zero_morphism(ab.ball, ab.src, ab.dst, ab.Q))
            if wit is None:
                ok = False
                break
        if not ok:
            continue
        seq = MorphismSequence.of([L0, L1, L2, L3], [f1, f2, f3])
        out.append(seq)
    return out


def budget_feasible(q, seq, cap=2**12):
    """Whether the oracle's total choice space fits under the cap."""
    from kq.toda import _Walk

    walk = _Walk(q, seq, 1)  # the level-1 stages read only the maps
    total = 1
    for i in (1, 2):
        blocks, _, cert = walk.solve((), walk.cone((), i, 1))
        if cert is not None:
            return False
        total *= math.prod(solution_count(b.solutions) for b in blocks)
    return total <= cap


def sequence_doc(seq):
    """The sequence document of a MorphismSequence over the point."""
    modules = [
        {"name": f"X{t}", "generators": [{"name": name, "r": r} for name, r in mod.generators]}
        for t, mod in enumerate(seq.modules)
    ]
    maps = []
    for t, f in enumerate(seq.maps, 1):
        entries = []
        for col, image in enumerate(f.images):
            by_row = {}
            for (row, name), c in sorted(image.items()):
                by_row.setdefault(row, []).append({"gen": name, "coeff": c})
            entries.extend({"row": row, "col": col, "value": value} for row, value in sorted(by_row.items()))
        maps.append({"from": f"X{t}", "to": f"X{t - 1}", "entries": entries})
    return {"modules": modules, "maps": maps}
