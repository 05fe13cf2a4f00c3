"""Documents for the universal n-fold Massey algebra (Kraines 1966, May 1969).

For order n let N = n + 2.  The basis is the unit "1" together with every
composition of a sub-interval [a, b] of [1, N] into adjacent intervals,
named by concatenation, e.g. "[1,2][3,5]".  The interval [a, b] has bidegree
(b - a + 1, b - a) and a composition has the sum of its pieces' bidegrees.
Multiplication is concatenation of adjacent compositions, and

    d[a,b] = sum_k (-1)^(k-a) [a,k][k+1,b]

extended to compositions by the Leibniz sign (-1)^s.  The top interval
[1, N] is left out, so the order-n bracket of the N one-letter maps
X_t -> X_{t-1} (multiplied by units u_t) is the class of

    (u_1 ... u_N) * sum_k (-1)^(k-1) [1,k][k+1,N]

in H_n of upper degree N.  An optional free cycle "z" in bidegree (2, 1)
with dz = 0 and all products zero gives every level-1 tower stage one free
parameter.

Everything a seed changes goes through a ``random.Random``: the order of the
basis, differential and product entries, the units, and the corrupted
constants.  The same seed gives byte-identical documents.

Run ``python3 bench/universal.py`` from the repository root to check that the
generated algebras validate and that the closed form holds at orders 1-5 over
Z/2, Z/3, Z/4, Z/5 and Z/9.
"""

import math
import random
import sys
from pathlib import Path

FREE_CYCLE = "z"


def _iv(a, b):
    return f"[{a},{b}]"


def _name(pieces):
    return "".join(_iv(a, b) for a, b in pieces)


def _compositions(a, b):
    """Every split of [a, b] into adjacent intervals, as tuples of pieces."""
    out = []
    for mask in range(1 << (b - a)):
        pieces, start = [], a
        for k in range(a, b):
            if mask >> (k - a) & 1:
                pieces.append((start, k))
                start = k + 1
        pieces.append((start, b))
        out.append(tuple(pieces))
    return out


def _d_interval(a, b):
    return [((-1) ** (k - a), ((a, k), (k + 1, b))) for k in range(a, b)]


def _d_composition(pieces, m):
    """d of a composition by the Leibniz rule, as {name: coeff mod m}."""
    out = {}
    s_before = 0
    for t, (a, b) in enumerate(pieces):
        sign = (-1) ** s_before
        for c, split in _d_interval(a, b):
            name = _name(pieces[:t] + split + pieces[t + 1:])
            out[name] = (out.get(name, 0) + sign * c) % m
        s_before += b - a
    return {x: v for x, v in out.items() if v}


def _terms(vec):
    return [{"gen": g, "coeff": c} for g, c in vec.items()]


def algebra_doc(order, modulus, rng, free_cycle=False):
    """The order-n universal algebra over Z/modulus, shuffled by rng."""
    N = order + 2
    comps = [
        p for a in range(1, N + 1) for b in range(a, N + 1) for p in _compositions(a, b)
        if p != ((1, N),)
    ]
    bideg = {}
    for p in comps:
        r = p[-1][1] - p[0][0] + 1
        bideg[_name(p)] = (r, r - len(p))
    basis = [{"name": "1", "r": 0, "s": 0}]
    basis += [{"name": x, "r": r, "s": s} for x, (r, s) in bideg.items()]
    differential = []
    for p in comps:
        dp = _d_composition(p, modulus)
        if dp:
            differential.append({"from": _name(p), "to": _terms(dp)})
    products = []
    for p in comps:
        for q in comps:
            if p[-1][1] + 1 == q[0][0]:
                products.append({"left": _name(p), "right": _name(q), "to": [{"gen": _name(p + q), "coeff": 1}]})
    if free_cycle:
        basis.append({"name": FREE_CYCLE, "r": 2, "s": 1})
    for entries in (basis, differential, products):
        rng.shuffle(entries)
    for entry in differential:
        rng.shuffle(entry["to"])
    return {
        "modulus": modulus,
        "truncation": order,
        "rMax": N,
        "basis": basis,
        "unit": "1",
        "differential": differential,
        "products": products,
    }


def draw_units(order, modulus, rng):
    """One unit of Z/modulus per map, so the expected cycle scales by their product."""
    units = [u for u in range(1, modulus) if math.gcd(u, modulus) == 1]
    return [rng.choice(units) for _ in range(order + 2)]


def sequence_doc(order, units):
    """The N one-letter maps X_t -> X_{t-1}, the t-th multiplied by units[t-1]."""
    N = order + 2
    modules = [{"name": f"X{t}", "generators": [{"name": f"x{t}", "r": t}]} for t in range(N + 1)]
    maps = [
        {
            "from": f"X{t}",
            "to": f"X{t - 1}",
            "entries": [{"row": 0, "col": 0, "value": [{"gen": _iv(t, t), "coeff": units[t - 1]}]}],
        }
        for t in range(1, N + 1)
    ]
    return {"modules": modules, "maps": maps}


def closed_form(order, modulus, units=None):
    """The expected bracket cycle, {name: coeff mod modulus}."""
    N = order + 2
    scale = math.prod(units or ())
    out = {}
    for k in range(1, N):
        c = ((-1) ** (k - 1) * scale) % modulus
        if c:
            out[_name(((1, k), (k + 1, N)))] = c
    return out


def corrupt(doc, rng):
    """A copy with one differential and one product coefficient changed."""
    m = doc["modulus"]
    bad = {**doc, "differential": [dict(e) for e in doc["differential"]], "products": [dict(e) for e in doc["products"]]}
    for key in ("differential", "products"):
        entry = rng.choice(bad[key])
        terms = [dict(t) for t in entry["to"]]
        t = rng.randrange(len(terms))
        terms[t]["coeff"] = (terms[t]["coeff"] + rng.randrange(1, m)) % m
        entry["to"] = terms
    return bad


def _self_check():
    """Validate and bracket the generated algebras at orders 1-5 in-process."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from kq.chain_algebra import NatSystem
    from kq.documents import nat_to_dict, parse_algebra, parse_sequence
    from kq.toda import toda_bracket

    failures = 0
    for modulus in (2, 3, 4, 5, 9):
        for order in range(1, 6):
            rng = random.Random(1000 * modulus + order)
            doc = algebra_doc(order, modulus, rng)
            units = draw_units(order, modulus, rng)
            algebra, violations = parse_algebra(doc)
            seq = parse_sequence(sequence_doc(order, units), algebra)
            res = toda_bracket(algebra, seq, order, nat=NatSystem(algebra, order))
            entries = nat_to_dict(res.representative)["entries"]
            cycle = {t["gen"]: t["coeff"] for t in entries[0]["value"]["cycle"]} if entries else {}
            ok = not violations and res.status == "defined" and cycle == closed_form(order, modulus, units)
            failures += not ok
            print(f"Z/{modulus} order {order}: {len(doc['basis'])} elements, {'ok' if ok else 'FAILED'}")
    return failures


if __name__ == "__main__":
    sys.exit(1 if _self_check() else 0)
