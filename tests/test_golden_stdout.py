"""Byte identity of the command line: exit code and stdout hash per command.

Each case runs kq.cli.main in-process on a fixture or on a generated
universal algebra (bench/universal.py) and compares its exit code and the
sha256 of its stdout with tests/golden_stdout.json.  When an output change
is intended, regenerate the table from the repository root with

    PYTHONPATH=src python tests/test_golden_stdout.py

and review the entries that changed.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile
from pathlib import Path

from kq.cli import main

from kq.documents import algebra_to_dict
from randalg import bracket_instances, random_valid_algebra, sequence_doc
from test_closed_form import universal

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
TABLE = Path(__file__).resolve().parent / "golden_stdout.json"

# (seed, instance) of random_valid_algebra and bracket_instances whose order-1
# bracket has a nonempty indeterminacy, over Z/3, Z/2, Z/4 and Z/2
INDETERMINACY_CASES = ((0, 0), (13, 2), (22, 2), (27, 0))

# budgets for the oracle, chain-complex and adams-d walks on universal-3-4-z
BUDGET_LADDER = (1, 5, 40, 300, 1000)

# budgets below the default for the oracle and chain-complex walks on
# universal-4-9-z, whose choice tree outgrows the default budget as well
LARGE_LADDER = (5000, 200000)


def hand_doc(modulus, truncation, r_max, basis, differential=(), products=()):
    """An algebra document with the unit "1" in (0,0); products may declare empty rows."""
    return {
        "modulus": modulus,
        "truncation": truncation,
        "rMax": r_max,
        "unit": "1",
        "basis": [{"name": x, "r": r, "s": s} for x, r, s in (("1", 0, 0), *basis)],
        "differential": [{"from": x, "to": [{"gen": g, "coeff": c} for g, c in to]} for x, to in differential],
        "products": [
            {"left": a, "right": b, "to": [{"gen": g, "coeff": c} for g, c in to]} for a, b, to in products
        ],
    }


# (label, document, truncation level) of the edge cases of truncate
HAND_TRUNCATIONS = (
    # the unit law written out: 1*x and x*1 stay implicit in the truncation
    (
        "unit-product",
        hand_doc(
            2, 1, 2, [("x", 1, 0), ("xx", 2, 0), ("y", 1, 1)],
            products=[("1", "x", [("x", 1)]), ("x", "1", [("x", 1)]), ("x", "x", [("xx", 1)])],
        ),
        0,
    ),
    # a*b = 0 declared, landing in (2,1) where level 1 has no basis element
    (
        "empty-top-product",
        hand_doc(3, 2, 2, [("a", 1, 0), ("b", 1, 1), ("c", 1, 2)], products=[("a", "b", [])]),
        1,
    ),
    # over Z/4, d(w) = 2v leaves a Z/2 class at the top level: a user error
    ("z4-torsion", hand_doc(4, 2, 2, [("v", 1, 1), ("w", 1, 2)], differential=[("w", [("v", 2)])]), 1),
)


def window_cut(doc, r_max):
    """doc with rMax lowered to r_max and every entry touching the elements above it left out."""
    kept = {e["name"] for e in doc["basis"] if e["r"] <= r_max}

    def touches_cut(entry):
        names = [entry.get("from"), entry.get("left"), entry.get("right")] + [t["gen"] for t in entry["to"]]
        return any(x is not None and x not in kept for x in names)

    return {
        **doc,
        "rMax": r_max,
        "basis": [e for e in doc["basis"] if e["name"] in kept],
        "differential": [e for e in doc["differential"] if not touches_cut(e)],
        "products": [e for e in doc["products"] if not touches_cut(e)],
    }


def _write(path, doc):
    path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    return str(path)


def point_sequence(generators, letters):
    """The sequence document of one-generator modules X0, X1, ... and the maps X_t -> X_{t-1} by letters[t-1]."""
    modules = [{"name": f"X{t}", "generators": [{"name": name, "r": r}]} for t, (name, r) in enumerate(generators)]
    maps = [
        {"from": f"X{t}", "to": f"X{t - 1}", "entries": [{"row": 0, "col": 0, "value": [{"gen": x, "coeff": 1}]}]}
        for t, x in enumerate(letters, 1)
    ]
    return {"modules": modules, "maps": maps}


def universal_docs(work, order, modulus, free_cycle):
    """Write the universal algebra and its sequence; returns the stem, the algebra path and the bracket arguments."""
    rng = random.Random(100 * modulus + 10 * order + free_cycle)
    stem = f"universal-{order}-{modulus}{'-z' if free_cycle else ''}"
    alg = _write(work / f"{stem}.json", universal.algebra_doc(order, modulus, rng, free_cycle))
    seq = _write(work / f"{stem}-seq.json", universal.sequence_doc(order, universal.draw_units(order, modulus, rng)))
    return stem, alg, ["--algebra", alg, "--sequence", seq, "--n", str(order)]


def cases(work):
    """Write the generated documents into work; returns {label: argv}."""
    out = {}
    massey = str(FIXTURES / "massey_algebra.json")
    abc = str(FIXTURES / "massey_sequence_abc.json")
    for name in ("massey_algebra", "unit_algebra", "broken_d_squared", "massey_sequence_abc"):
        out[f"validate {name}"] = ["validate", "--algebra", str(FIXTURES / f"{name}.json")]
    for command in ("toda", "massey", "oracle", "chain-complex", "adams-d"):
        out[f"{command} massey"] = [command, "--algebra", massey, "--sequence", abc, "--n", "1"]
    for k in (0, 1):
        out[f"homology --k {k} massey"] = ["homology", "--algebra", massey, "--k", str(k)]
    out["truncate --n 0 massey"] = ["truncate", "--algebra", massey, "--n", "0"]
    for label, doc, level in HAND_TRUNCATIONS:
        alg = _write(work / f"{label}.json", doc)
        out[f"truncate --n {level} {label}"] = ["truncate", "--algebra", alg, "--n", str(level)]
    # the window a, b of the Massey sequence extends: chain-complex is defined
    ab = _write(work / "massey-ab.json", point_sequence([("w", 0), ("z1", 1), ("z2", 2)], ["a", "b"]))
    out["chain-complex massey-ab"] = ["chain-complex", "--algebra", massey, "--sequence", ab, "--n", "1"]
    # a, 1, b: the composite a*1 = a is not nullhomotopic, so no bracket and no window
    a1b = _write(work / "massey-a1b.json", point_sequence([("w", 0), ("s", 1), ("t", 1), ("r", 2)], ["a", "1", "b"]))
    for command in ("toda", "adams-d"):
        out[f"{command} massey-a1b"] = [command, "--algebra", massey, "--sequence", a1b, "--n", "1"]
    # a sequence must list one more module than maps: a module too many, and none at all
    five_modules = [("w", 0), ("z1", 1), ("z2", 2), ("z3", 3), ("z4", 4)]
    five = _write(work / "massey-five-modules.json", point_sequence(five_modules, ["a", "b", "c"]))
    out["toda massey-five-modules"] = ["toda", "--algebra", massey, "--sequence", five, "--n", "1"]
    empty = _write(work / "empty-sequence.json", point_sequence([], []))
    out["chain-complex empty-sequence"] = ["chain-complex", "--algebra", massey, "--sequence", empty]

    for order in (1, 2, 3):
        for modulus in (2, 3, 4, 9):
            for free_cycle in (False, True):
                stem, alg, common = universal_docs(work, order, modulus, free_cycle)
                for command in ("toda", "oracle", "chain-complex", "adams-d"):
                    out[f"{command} {stem}"] = [command, *common]
                for level in range(1, order):  # below the top level, so products are projected
                    out[f"truncate --n {level} {stem}"] = ["truncate", "--algebra", alg, "--n", str(level)]

    # the tower-walk shape under a ladder of budgets: the budget error prints
    # the spent count, so these pin the order in which the walk charges states
    stem = "universal-3-4-z"
    common = ["--algebra", str(work / f"{stem}.json"), "--sequence", str(work / f"{stem}-seq.json"), "--n", "3"]
    for command in ("oracle", "chain-complex", "adams-d"):
        for budget in BUDGET_LADDER:
            out[f"{command} --budget {budget} {stem}"] = [command, *common, "--budget", str(budget)]

    # order 4 over Z/9 with the free cycle: 9^5 picks at level 1 alone, so
    # both searches end with the budget error, at the default and on each rung
    stem, _, common = universal_docs(work, 4, 9, True)
    for command in ("oracle", "chain-complex"):
        out[f"{command} {stem}"] = [command, *common]
        for budget in LARGE_LADDER:
            out[f"{command} --budget {budget} {stem}"] = [command, *common, "--budget", str(budget)]

    # the order-1 bracket on an algebra whose window cuts the bracket's products
    rng = random.Random(3)
    doc = window_cut(universal.algebra_doc(1, 2, rng, free_cycle=True), 2)
    alg = _write(work / "window-cut.json", doc)
    seq = _write(work / "window-cut-seq.json", universal.sequence_doc(1, universal.draw_units(1, 2, rng)))
    out["toda window-cut"] = ["toda", "--algebra", alg, "--sequence", seq, "--n", "1"]

    # order-1 brackets whose indeterminacy_generators are nonempty
    for seed, t in INDETERMINACY_CASES:
        rng = random.Random(seed)
        q = random_valid_algebra(rng)
        stem = f"randalg-{seed}-{t}"
        alg = _write(work / f"{stem}.json", algebra_to_dict(q))
        seq = _write(work / f"{stem}-seq.json", sequence_doc(bracket_instances(q, rng)[t]))
        out[f"toda {stem}"] = ["toda", "--algebra", alg, "--sequence", seq, "--n", "1"]
    return out


def run(argv):
    """Exit code and stdout sha256 of one in-process command."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return [code, hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()]


def outputs(work):
    return {label: run(argv) for label, argv in cases(work).items()}


def test_stdout_matches_golden_table(tmp_path, monkeypatch):
    monkeypatch.delenv("ENGINE_BUDGET", raising=False)
    want = json.loads(TABLE.read_text(encoding="utf-8"))
    got = outputs(tmp_path)
    assert sorted(got) == sorted(want)
    assert [label for label in got if got[label] != want[label]] == []


if __name__ == "__main__":
    os.environ.pop("ENGINE_BUDGET", None)
    with tempfile.TemporaryDirectory() as work:
        table = outputs(Path(work))
    rows = [f" {json.dumps(label)}: {json.dumps(table[label])}" for label in sorted(table)]
    TABLE.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")
