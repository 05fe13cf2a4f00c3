"""Input document schemas and canonical serialization: the algebra half.

Algebras are sparse structure-constant lists.  Sequences give module bases
and maps whose entries are explicit degree-zero cycles, so lifts are never
guessed; their parser, which builds the sequence's point maps, is
`kq.tower_cli.parse_sequence`, so that this module imports nothing of the
tower.  Serialization is canonical: fixed key order, basis sorted by
(lower degree, upper degree, name), no timestamps.
"""

from .chain_algebra import ChainAlgebra
from .errors import UserInputError


def _path(where):
    """A field path's text: () is the document, ("maps", 0, "entries", 2) is maps[0].entries[2]."""
    out = ""
    for part in where:
        if isinstance(part, int):
            out += f"[{part}]"
        else:
            out += f".{part}" if out else part
    return out or "document"


def _need(doc, key, where, types):
    """doc[key], checked; where is the path of doc as a tuple, formatted only for an error."""
    if not isinstance(doc, dict):
        raise UserInputError(f"expected an object at {_path(where)}")
    if key not in doc:
        raise UserInputError(f"missing field {key!r} at {_path(where)}")
    val = doc[key]
    if isinstance(val, bool) or not isinstance(val, types):  # no field is boolean, and bool is an int
        raise UserInputError(f"field {key!r} at {_path(where)} has the wrong type")
    return val


def _coeff_list(val, where):
    """The vector of a {gen, coeff} list, which every caller has already checked to be a list."""
    out = {}
    for t, item in enumerate(val):
        at = (*where, t)
        gen = _need(item, "gen", at, str)
        coeff = _need(item, "coeff", at, int)
        out[gen] = out.get(gen, 0) + coeff
    return out


def _optional_list(doc, key):
    return _need(doc, key, (), list) if key in doc else []


def parse_algebra(doc):
    """(algebra, axiom violations); schema problems raise with a path."""
    m = _need(doc, "modulus", (), int)
    n = _need(doc, "truncation", (), int)
    r_max = _need(doc, "rMax", (), int)
    basis = _need(doc, "basis", (), list)
    unit = _need(doc, "unit", (), str)
    elements = []
    for t, item in enumerate(basis):
        at = ("basis", t)
        name = _need(item, "name", at, str)
        r = _need(item, "r", at, int)
        s = _need(item, "s", at, int)
        elements.append((name, r, s))
    diff = {}
    for t, item in enumerate(_optional_list(doc, "differential")):
        at = ("differential", t)
        src = _need(item, "from", at, str)
        if src in diff:
            raise UserInputError(f"duplicate differential entry at differential[{t}]")
        diff[src] = _coeff_list(_need(item, "to", at, list), (*at, "to"))
    mul = {}
    for t, item in enumerate(_optional_list(doc, "products")):
        at = ("products", t)
        left = _need(item, "left", at, str)
        right = _need(item, "right", at, str)
        if (left, right) in mul:
            raise UserInputError(f"duplicate product entry at products[{t}]")
        mul[(left, right)] = _coeff_list(_need(item, "to", at, list), (*at, "to"))
    algebra = ChainAlgebra(m, n, r_max, elements, unit, diff, mul)
    return algebra, algebra.validate()


def _vec_out(vec):
    return [{"gen": g, "coeff": int(c)} for g, c in sorted(vec.items()) if c]


def algebra_to_dict(Q):
    order = sorted(Q.names, key=lambda x: (Q.bidegree[x][1], Q.bidegree[x][0], x))
    basis = [{"name": x, "r": Q.bidegree[x][0], "s": Q.bidegree[x][1]} for x in order]
    differential = [
        {"from": x, "to": _vec_out(Q.d_of(x))} for x in order if Q.d_of(x)
    ]
    products = [
        {"left": a, "right": b, "to": _vec_out(row)}
        for (a, b), row in sorted(Q.mul.items())
        if row
    ]
    return {
        "modulus": Q.m,
        "truncation": Q.n,
        "rMax": Q.r_max,
        "basis": basis,
        "unit": Q.unit,
        "differential": differential,
        "products": products,
    }


def hclass_to_dict(h):
    return {
        "degree": h.r,
        "coords": [int(c) for c in h.coords],
        "cycle": [{"gen": g, "coeff": int(c)} for g, c in h.rep],
    }


def nat_to_dict(elem):
    return {
        "level": elem.k,
        "entries": [
            {"row": j, "col": i, "value": hclass_to_dict(h)} for j, i, h in elem.entries
        ],
        "zero": elem.is_zero(),
    }


def presentation_to_dict(hom, r_max):
    out = []
    for r in range(r_max + 1):
        pres = hom.presentation(r)
        if pres.rank == 0:
            continue
        basis = hom.Q.basis_at(r, hom.k)
        out.append(
            {
                "r": r,
                "order_exponents": [int(e) for e in pres.order_exps],
                "representatives": [
                    [{"gen": basis[t], "coeff": int(c)} for t, c in enumerate(rep) if c]
                    for rep in pres.reps
                ],
            }
        )
    return out


def __getattr__(name):
    """kq.documents.parse_sequence, which bench/universal.py imports, is kq.tower_cli's."""
    if name == "parse_sequence":
        from .tower_cli import parse_sequence  # loads the tower only for a caller that asks for it

        return parse_sequence
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
