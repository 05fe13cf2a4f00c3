"""Input document schemas and canonical serialization.

Algebras are sparse structure-constant lists; sequences give module bases
and maps whose entries are explicit degree-zero cycles, so lifts are never
guessed.  Serialization is canonical: fixed key order, basis sorted by
(lower degree, upper degree, name), no timestamps.
"""

from .chain_algebra import ChainAlgebra, GradedModule
from .cubical import point_ball
from .errors import UserInputError
from .toda import MorphismSequence
from .track import pt_morphism


def _need(doc, key, where, types):
    if not isinstance(doc, dict):
        raise UserInputError(f"expected an object at {where}")
    if key not in doc:
        raise UserInputError(f"missing field {key!r} at {where}")
    val = doc[key]
    if isinstance(val, bool) or not isinstance(val, types):  # no field is boolean, and bool is an int
        raise UserInputError(f"field {key!r} at {where} has the wrong type")
    return val


def _coeff_list(val, where):
    if not isinstance(val, list):
        raise UserInputError(f"expected a list of {{gen, coeff}} at {where}")
    out = {}
    for t, item in enumerate(val):
        gen = _need(item, "gen", f"{where}[{t}]", str)
        coeff = _need(item, "coeff", f"{where}[{t}]", int)
        out[gen] = out.get(gen, 0) + coeff
    return out


def _optional_list(doc, key):
    return _need(doc, key, "document", list) if key in doc else []


def parse_algebra(doc):
    """(algebra, axiom violations); schema problems raise with a path."""
    m = _need(doc, "modulus", "document", int)
    n = _need(doc, "truncation", "document", int)
    r_max = _need(doc, "rMax", "document", int)
    basis = _need(doc, "basis", "document", list)
    unit = _need(doc, "unit", "document", str)
    elements = []
    for t, item in enumerate(basis):
        name = _need(item, "name", f"basis[{t}]", str)
        r = _need(item, "r", f"basis[{t}]", int)
        s = _need(item, "s", f"basis[{t}]", int)
        elements.append((name, r, s))
    diff = {}
    for t, item in enumerate(_optional_list(doc, "differential")):
        src = _need(item, "from", f"differential[{t}]", str)
        if src in diff:
            raise UserInputError(f"duplicate differential entry at differential[{t}]")
        diff[src] = _coeff_list(_need(item, "to", f"differential[{t}]", list), f"differential[{t}].to")
    mul = {}
    for t, item in enumerate(_optional_list(doc, "products")):
        left = _need(item, "left", f"products[{t}]", str)
        right = _need(item, "right", f"products[{t}]", str)
        if (left, right) in mul:
            raise UserInputError(f"duplicate product entry at products[{t}]")
        mul[(left, right)] = _coeff_list(_need(item, "to", f"products[{t}]", list), f"products[{t}].to")
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


def parse_sequence(doc, Q):
    mods = []
    names = {}
    for t, item in enumerate(_need(doc, "modules", "document", list)):
        name = _need(item, "name", f"modules[{t}]", str)
        gens = []
        for u, g in enumerate(_need(item, "generators", f"modules[{t}]", list)):
            gens.append(
                (
                    _need(g, "name", f"modules[{t}].generators[{u}]", str),
                    _need(g, "r", f"modules[{t}].generators[{u}]", int),
                )
            )
        mod = GradedModule.of(gens)
        if name in names:
            raise UserInputError(f"duplicate module name {name!r}")
        names[name] = mod
        mods.append((name, mod))
    maps = []
    pt = point_ball()
    for t, item in enumerate(_need(doc, "maps", "document", list)):
        src_name = _need(item, "from", f"maps[{t}]", str)
        dst_name = _need(item, "to", f"maps[{t}]", str)
        if t + 1 >= len(mods) or mods[t + 1][0] != src_name or mods[t][0] != dst_name:
            raise UserInputError(
                f"maps[{t}] must go from modules[{t + 1}] to modules[{t}] in order"
            )
        src = names[src_name]
        dst = names[dst_name]
        entries = {}
        for u, e in enumerate(_need(item, "entries", f"maps[{t}]", list)):
            row = _need(e, "row", f"maps[{t}].entries[{u}]", int)
            col = _need(e, "col", f"maps[{t}].entries[{u}]", int)
            if not (0 <= row < dst.size and 0 <= col < src.size):
                raise UserInputError(f"entry indices out of range at maps[{t}].entries[{u}]")
            if (row, col) in entries:
                raise UserInputError(f"duplicate map entry at maps[{t}].entries[{u}]")
            vec = _coeff_list(_need(e, "value", f"maps[{t}].entries[{u}]", list), f"maps[{t}].entries[{u}].value")
            need_r = src.degree(col) - dst.degree(row)
            for g in vec:
                if g not in Q.bidegree:
                    raise UserInputError(f"unknown algebra element {g!r} at maps[{t}].entries[{u}]")
                if Q.bidegree[g] != (need_r, 0):
                    raise UserInputError(
                        f"entry value at maps[{t}].entries[{u}] must be a degree ({need_r},0) cycle"
                    )
            entries[(row, col)] = vec
        maps.append(pt_morphism(pt, Q, src, dst, entries))
    return MorphismSequence.of([mod for _, mod in mods], maps)


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
