"""The CLI's failure contract under seeded structural mutations of its documents.

Each case mutates one document once (drops a key, replaces a value with
null, "", [], {}, true, 1.5 or an int, duplicates a list entry, or nudges an
int) and runs one command on it through kq.cli.main.  Whatever the input,
the command exits 0 or 1, prints exactly one JSON document, and on exit 1
says the error is the user's or the budget's.
"""

import copy
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from kq.cli import main

from test_closed_form import universal

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SEED = 14
CASES = 500
REPLACEMENTS = (None, "", [], {}, True, 1.5)


def _load(name):
    return json.loads((FIXTURES / name).read_text(encoding="utf-8"))


def _sources():
    """(label, algebra doc, sequence doc or None, n, k): the fixtures and one small universal algebra."""
    rng = random.Random(3)
    alg = universal.algebra_doc(1, 3, rng, free_cycle=True)
    seq = universal.sequence_doc(1, universal.draw_units(1, 3, rng))
    return [
        ("massey", _load("massey_algebra.json"), _load("massey_sequence_abc.json"), 1, 1),
        ("unit", _load("unit_algebra.json"), None, 1, 0),
        ("broken", _load("broken_d_squared.json"), None, 1, 1),
        ("universal-1-3-z", alg, seq, 1, 1),
    ]


def _slots(doc):
    """(container, key, value) for every value below the root, depth first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield doc, key, value
        yield from _slots(value)


def mutate(doc, rng):
    """A copy of doc with one structural mutation, and what it was."""
    doc = copy.deepcopy(doc)
    slots = list(_slots(doc))
    ops = {
        "drop": [(c, k) for c, k, _ in slots if isinstance(c, dict)],
        "replace": [(c, k) for c, k, _ in slots],
        "duplicate": [(c, k) for c, k, v in slots if isinstance(v, list) and v],
        "nudge": [(c, k) for c, k, v in slots if type(v) is int],
    }
    op = rng.choice(sorted(name for name, where in ops.items() if where))
    container, key = rng.choice(ops[op])
    if op == "drop":
        del container[key]
    elif op == "replace":
        container[key] = copy.deepcopy(rng.choice(REPLACEMENTS + (rng.randint(-2, 12),)))
    elif op == "duplicate":
        entries = container[key]
        entries.insert(rng.randrange(len(entries) + 1), copy.deepcopy(rng.choice(entries)))
    else:
        container[key] += rng.choice((-1, 1))
    return doc, f"{op} {key!r}"


def _argv(command, alg, seq, n, k):
    if command == "validate":
        return ["validate", "--algebra", alg]
    if command == "homology":
        return ["homology", "--algebra", alg, "--k", str(k)]
    if command == "truncate":
        return ["truncate", "--algebra", alg, "--n", str(n - 1)]
    return [command, "--algebra", alg, "--sequence", seq, "--n", str(n), "--budget", "200"]


ALGEBRA_ONLY = ("validate", "homology", "truncate")
COMMANDS = ALGEBRA_ONLY + ("toda", "oracle", "chain-complex", "adams-d")


def test_mutated_documents_keep_the_failure_contract(tmp_path, monkeypatch):
    monkeypatch.delenv("ENGINE_BUDGET", raising=False)
    rng = random.Random(SEED)
    sources = _sources()
    broken = []
    codes = set()
    for t in range(CASES):
        command = rng.choice(COMMANDS)
        label, alg_doc, seq_doc, n, k = rng.choice([s for s in sources if s[2] or command in ALGEBRA_ONLY])
        if command in ALGEBRA_ONLY or rng.random() < 0.5:
            alg_doc, what = mutate(alg_doc, rng)
        else:
            seq_doc, what = mutate(seq_doc, rng)
            what = f"sequence {what}"
        alg = tmp_path / f"alg{t}.json"
        seq = tmp_path / f"seq{t}.json"
        alg.write_text(json.dumps(alg_doc), encoding="utf-8")
        seq.write_text(json.dumps(seq_doc or {}), encoding="utf-8")
        case = f"case {t}: {command} on {label}, {what}"
        stdout = io.StringIO()
        try:
            with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
                code = main(_argv(command, str(alg), str(seq), n, k))
        except BaseException as exc:  # the contract is that nothing escapes main
            broken.append(f"{case}: {type(exc).__name__}: {exc}")
            continue
        lines = stdout.getvalue().splitlines()
        codes.add(code)
        if code not in (0, 1) or len(lines) != 1:
            broken.append(f"{case}: exit {code}, {len(lines)} stdout lines")
            continue
        doc = json.loads(lines[0])
        if code == 1 and doc.get("kind") not in ("user", "budget"):
            broken.append(f"{case}: exit 1 of kind {doc.get('kind')!r}")
    assert broken == []
    assert codes == {0, 1}  # the mutations reach both outcomes
