"""The tower half of the command line: sequence documents and the commands that walk the tower.

`kq.cli` runs validate, truncate and homology itself and imports this module
only for the commands that take a sequence (massey, toda, oracle,
chain-complex, adams-d).  Everything the tower needs (toda, oracle_support)
is imported here, so the algebra commands load none of it.  A sequence
document's maps are built as point maps (toda.PointMap), so no command loads
the cubical model (cubical, track).
"""

import os

from .chain_algebra import GradedModule, entry_images
from .documents import _coeff_list, _need, nat_to_dict
from .errors import UserInputError
from .oracle_support import DEFAULT_BUDGET, EnumerationBudget
from .toda import (
    DEFINED,
    WINDOW_UNSOUND,
    MorphismSequence,
    PointMap,
    adams_d,
    build_chain_complex,
    nat_system,
    oracle_bracket_set,
    toda_bracket,
    triple_indeterminacy,
)


def parse_sequence(doc, Q):
    mods = []
    names = {}
    for t, item in enumerate(_need(doc, "modules", (), list)):
        name = _need(item, "name", ("modules", t), str)
        gens = []
        for u, g in enumerate(_need(item, "generators", ("modules", t), list)):
            at = ("modules", t, "generators", u)
            gens.append((_need(g, "name", at, str), _need(g, "r", at, int)))
        mod = GradedModule.of(gens)
        if name in names:
            raise UserInputError(f"duplicate module name {name!r}")
        names[name] = mod
        mods.append((name, mod))
    maps = []
    for t, item in enumerate(_need(doc, "maps", (), list)):
        src_name = _need(item, "from", ("maps", t), str)
        dst_name = _need(item, "to", ("maps", t), str)
        if t + 1 >= len(mods) or mods[t + 1][0] != src_name or mods[t][0] != dst_name:
            raise UserInputError(
                f"maps[{t}] must go from modules[{t + 1}] to modules[{t}] in order"
            )
        src = names[src_name]
        dst = names[dst_name]
        entries = {}
        for u, e in enumerate(_need(item, "entries", ("maps", t), list)):
            at = ("maps", t, "entries", u)
            row = _need(e, "row", at, int)
            col = _need(e, "col", at, int)
            if not (0 <= row < dst.size and 0 <= col < src.size):
                raise UserInputError(f"entry indices out of range at maps[{t}].entries[{u}]")
            if (row, col) in entries:
                raise UserInputError(f"duplicate map entry at maps[{t}].entries[{u}]")
            vec = _coeff_list(_need(e, "value", at, list), (*at, "value"))
            need_r = src.degree(col) - dst.degree(row)
            for g in vec:
                if g not in Q.bidegree:
                    raise UserInputError(f"unknown algebra element {g!r} at maps[{t}].entries[{u}]")
                if Q.bidegree[g] != (need_r, 0):
                    raise UserInputError(
                        f"entry value at maps[{t}].entries[{u}] must be a degree ({need_r},0) cycle"
                    )
            entries[(row, col)] = vec
        maps.append(PointMap(src, dst, entry_images(entries, src.size, Q.m), False))
    return MorphismSequence.of([mod for _, mod in mods], maps)


def _bracket_payload(res):
    out = {"status": res.status, "choice_log": res.choice_log}
    if res.representative is not None:
        out["representative"] = nat_to_dict(res.representative)
    if res.step is not None:
        out["failed_step"] = res.step
        out["failed_index"] = res.index
        out["certificate"] = res.certificate
    return out


def _budget(args):
    budget = args.budget
    env = os.environ.get("ENGINE_BUDGET")
    if budget is None and env:
        try:
            budget = int(env)
        except ValueError:
            raise UserInputError(f"ENGINE_BUDGET is not an integer: {env!r}")
    budget = DEFAULT_BUDGET if budget is None else budget
    if budget < 1:
        raise UserInputError(f"the enumeration budget must be at least 1, got {budget}")
    return EnumerationBudget(budget)


def run_tower(args, result, algebra, sequence_doc):
    """Fill in result for a tower command on a valid algebra and its parsed sequence document."""
    seq = parse_sequence(sequence_doc, algebra)
    n = args.n if args.n is not None else algebra.n
    nat = nat_system(algebra, n)

    if args.command in ("massey", "toda"):
        res = toda_bracket(algebra, seq, n, nat=nat)
        result.update(_bracket_payload(res))
        if n == 1:
            gens = triple_indeterminacy(algebra, seq, nat=nat)
            if gens is not None:
                result["indeterminacy_generators"] = [nat_to_dict(g) for g in gens]
            elif res.status == DEFINED:  # the window cut off a product of the indeterminacy
                result["status"] = WINDOW_UNSOUND
        return result

    if args.command == "oracle":
        reps = oracle_bracket_set(algebra, seq, n, budget=_budget(args), nat=nat)
        result["bracket_set"] = [nat_to_dict(r) for r in reps]
        result["set_size"] = len(reps)
        return result

    if args.command == "chain-complex":
        hcc, fail = build_chain_complex(algebra, seq, n, search_budget=_budget(args), nat=nat)
        if hcc is None:
            result["status"] = "not_constructible"
            result["failed_step"] = fail.get("step")
            result["failed_index"] = fail.get("index")
            result["certificate"] = fail.get("certificate")
        else:
            result["status"] = "defined"
            result["levels"] = sorted([list(k) for k in hcc.data])
            result["choice_log"] = hcc.choice_log
        return result

    if args.command == "adams-d":
        if seq.length != n + 2:
            raise UserInputError(
                f"adams-d needs {n + 2} maps: the resolution window then the class lift"
            )
        window = MorphismSequence.of(seq.modules[: n + 2], seq.maps[: n + 1])
        beta = seq.maps[n + 1]
        hcc, fail = build_chain_complex(algebra, window, n, search_budget=_budget(args), nat=nat)
        if hcc is None:
            raise UserInputError(
                "the resolution window does not extend to a coherent chain complex",
                detail=fail,
            )
        res = adams_d(algebra, hcc, beta, n, nat=nat)
        result.update(_bracket_payload(res))
        return result

    raise UserInputError(f"unknown command {args.command!r}")
