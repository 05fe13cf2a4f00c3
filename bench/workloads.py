"""The benchmark's workloads: generated documents, engine commands and checks.

Each workload writes its documents into a work directory and returns the
commands of one pass.  A command is an engine argument list and a check that
takes the exit code and the stdout bytes and returns None when the output is
what the workload expects, or a one-line reason when it is not.
"""

import json
import math
import random
from dataclasses import dataclass

import universal


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple
    check: object  # (returncode, stdout bytes) -> None or a reason


@dataclass(frozen=True)
class Workload:
    setup: Command  # `validate` on the workload's main algebra
    commands: tuple


def _write(path, doc):
    path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    return str(path)


def _parse(rc, out, want_rc):
    if rc != want_rc:
        raise _Mismatch(f"exit code {rc}, expected {want_rc}")
    try:
        return json.loads(out)
    except ValueError:
        raise _Mismatch("stdout is not one JSON document")


class _Mismatch(Exception):
    pass


def _checked(fn):
    def check(rc, out):
        try:
            fn(rc, out)
        except _Mismatch as exc:
            return str(exc)
        except (KeyError, IndexError, TypeError) as exc:
            return f"unexpected document shape: {exc!r}"
        return None

    return check


def _expect(cond, reason):
    if not cond:
        raise _Mismatch(reason)


def _single_cycle(nat):
    """The cycle of a 1x1 level-n matrix, as {name: coeff}."""
    entries = nat["entries"]
    _expect(len(entries) == 1 and entries[0]["row"] == 0 and entries[0]["col"] == 0, "expected one (0,0) entry")
    return {t["gen"]: t["coeff"] for t in entries[0]["value"]["cycle"]}


@_checked
def _check_valid(rc, out):
    doc = _parse(rc, out, 0)
    _expect(doc["valid"] is True and doc["violations"] == [], "the clean algebra is not valid")


def _check_bracket(expected, stages):
    @_checked
    def check(rc, out):
        doc = _parse(rc, out, 0)
        _expect(doc["status"] == "defined", f"status {doc['status']!r}")
        _expect(_single_cycle(doc["representative"]) == expected, "representative differs from the closed form")
        _expect(stages is None or len(doc["choice_log"]) == stages, "wrong number of choice-log entries")

    return check


def _check_oracle(expected):
    @_checked
    def check(rc, out):
        doc = _parse(rc, out, 0)
        _expect(doc["set_size"] == 1 and len(doc["bracket_set"]) == 1, "the bracket set is not one element")
        _expect(_single_cycle(doc["bracket_set"][0]) == expected, "bracket set differs from the closed form")

    return check


@_checked
def _check_not_constructible(rc, out):
    doc = _parse(rc, out, 0)
    _expect(doc["status"] == "not_constructible", f"status {doc['status']!r}")
    _expect(doc["failed_step"] == 4 and doc["failed_index"] == 1, "wrong failed step or index")
    obstruction = doc["certificate"]["obstruction"]
    _expect(any(any(c) for *_, c in obstruction), "the obstruction is zero")


def _is_unit_multiple(cycle, form, m):
    """cycle == u * form for some unit u of Z/m."""
    return any(cycle == {g: u * c % m for g, c in form.items()} for u in range(1, m) if math.gcd(u, m) == 1)


def _check_top_homology(order, modulus):
    form = universal.closed_form(order, modulus)

    @_checked
    def check(rc, out):
        doc = _parse(rc, out, 0)
        modules = doc["modules"]
        _expect(len(modules) == 1 and modules[0]["r"] == order + 2, "top homology is not one module in degree N")
        mod = modules[0]
        exps = mod["order_exponents"]
        _expect(len(exps) == 1 and _prime(modulus) ** exps[0] == modulus, "top homology is not cyclic of order m")
        rep = {t["gen"]: t["coeff"] for t in mod["representatives"][0]}
        _expect(_is_unit_multiple(rep, form, modulus), "the generator is not the closed form")

    return check


def _prime(modulus):
    return next(p for p in range(2, modulus + 1) if modulus % p == 0)


def _check_homology_runs(k):
    @_checked
    def check(rc, out):
        doc = _parse(rc, out, 0)
        _expect(doc["k"] == k and isinstance(doc["modules"], list), "malformed homology result")

    return check


def _check_truncate(n):
    @_checked
    def check(rc, out):
        doc = _parse(rc, out, 0)
        _expect(doc["algebra"]["truncation"] == n, "truncated algebra has the wrong level")

    return check


@_checked
def _check_violations(rc, out):
    doc = _parse(rc, out, 0)
    _expect(doc["valid"] is False and len(doc["violations"]) > 0, "corruption was not reported")


@_checked
def _check_user_error(rc, out):
    doc = _parse(rc, out, 1)
    _expect(doc["kind"] == "user" and doc["status"] == "error", "not a user error")


def _validate(alg):
    return Command("validate", ("validate", "--algebra", alg), _check_valid)


def bracket_deep(work, seed):
    """One order-6 bracket over Z/2: validation and the dense solver dominate."""
    order, modulus = 6, 2
    rng = random.Random(seed)
    alg = _write(work / "algebra.json", universal.algebra_doc(order, modulus, rng))
    units = universal.draw_units(order, modulus, rng)
    seq = _write(work / "sequence.json", universal.sequence_doc(order, units))
    expected = universal.closed_form(order, modulus, units)
    stages = sum(order + 2 - k for k in range(1, order + 1))
    argv = ("toda", "--algebra", alg, "--sequence", seq, "--n", str(order))
    return Workload(
        _validate(alg),
        (Command("toda", argv, _check_bracket(expected, stages)),),
    )


def tower_walk(work, seed):
    """Oracle, chain complex and adams-d at order 3 over Z/4 with a free cycle."""
    order, modulus = 3, 4
    rng = random.Random(seed)
    alg = _write(work / "algebra.json", universal.algebra_doc(order, modulus, rng, free_cycle=True))
    units = universal.draw_units(order, modulus, rng)
    seq = _write(work / "sequence.json", universal.sequence_doc(order, units))
    expected = universal.closed_form(order, modulus, units)
    common = ("--algebra", alg, "--sequence", seq, "--n", str(order))
    return Workload(
        _validate(alg),
        (
            Command("oracle", ("oracle",) + common, _check_oracle(expected)),
            Command("chain-complex", ("chain-complex",) + common, _check_not_constructible),
            Command("adams-d", ("adams-d",) + common, _check_bracket(expected, None)),
        ),
    )


def algebra_inspect(work, seed):
    """validate, homology and truncate on the order-5 algebra over Z/9, clean and corrupted."""
    order, modulus = 5, 9
    rng = random.Random(seed)
    doc = universal.algebra_doc(order, modulus, rng)
    alg = _write(work / "algebra.json", doc)
    commands = [_validate(alg)]
    for k in range(order + 1):
        check = _check_top_homology(order, modulus) if k == order else _check_homology_runs(k)
        commands.append(Command(f"homology-{k}", ("homology", "--algebra", alg, "--k", str(k)), check))
    for n in range(order):
        commands.append(Command(f"truncate-{n}", ("truncate", "--algebra", alg, "--n", str(n)), _check_truncate(n)))
    for t in range(3):
        bad = _write(work / f"corrupt{t}.json", universal.corrupt(doc, rng))
        commands.append(Command(f"corrupt{t}-validate", ("validate", "--algebra", bad), _check_violations))
        commands.append(Command(f"corrupt{t}-homology", ("homology", "--algebra", bad, "--k", "1"), _check_user_error))
    return Workload(_validate(alg), tuple(commands))


WORKLOADS = {
    "bracket-deep": bracket_deep,
    "tower-walk": tower_walk,
    "algebra-inspect": algebra_inspect,
}
