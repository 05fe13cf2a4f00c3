"""Batch command line interface.

Commands read an algebra document (and usually a sequence document), run one
computation, and print a canonical JSON result on stdout.  Output is byte
identical across runs on identical inputs: keys are sorted, there are no
timestamps, and the engine version and input hashes are embedded.  Exit code
0 means success, 1 a user error (diagnostics in the JSON on stdout and a
human message on stderr), 2 an internal error (an error document on stdout
and the traceback on stderr).
"""

import argparse
import hashlib
import io
import json
import os
import sys

from . import __version__
from .chain_algebra import homology, truncate
from .documents import (
    algebra_to_dict,
    nat_to_dict,
    parse_algebra,
    parse_sequence,
    presentation_to_dict,
)
from .errors import BudgetExceededError, UserInputError
from .oracle_support import DEFAULT_BUDGET, EnumerationBudget
from .toda import (
    DEFINED,
    WINDOW_UNSOUND,
    MorphismSequence,
    adams_d,
    build_chain_complex,
    nat_system,
    oracle_bracket_set,
    toda_bracket,
    triple_indeterminacy,
)


def _load_json(path, what):
    """The parsed document and the sha256 of the bytes it was parsed from, read once."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        # decoded as a text-mode read would, newlines translated, so JSON error positions stay put
        text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read()
        return json.loads(text), hashlib.sha256(raw).hexdigest()
    except FileNotFoundError:
        raise UserInputError(f"{what} file not found: {path}")
    except json.JSONDecodeError as exc:
        raise UserInputError(f"{what} file is not valid JSON: {exc}")
    except (OSError, UnicodeDecodeError) as exc:
        raise UserInputError(f"{what} file cannot be read as UTF-8 text: {path} ({exc})")


def _emit(doc, out_path=None):
    """Write the document to out_path, if given, and then to stdout."""
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            raise UserInputError(f"cannot write the --out file: {out_path}: {exc.strerror or exc}")
    sys.stdout.write(payload)


def _load_algebra(args, result, require_valid=True):
    doc, result["inputs"]["algebra_sha256"] = _load_json(args.algebra, "algebra")
    algebra, violations = parse_algebra(doc)
    if violations and require_valid:
        raise UserInputError(
            "the algebra violates its axioms",
            detail={"violations": violations},
        )
    return algebra, violations


def _load_sequence(args, result, algebra):
    if not args.sequence:
        raise UserInputError("this command needs --sequence")
    doc, result["inputs"]["sequence_sha256"] = _load_json(args.sequence, "sequence")
    return parse_sequence(doc, algebra)


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


def run(args):
    result = {"command": args.command, "engine_version": __version__, "inputs": {}}

    if args.command == "validate":
        algebra, violations = _load_algebra(args, result, require_valid=False)
        result["valid"] = not violations
        result["violations"] = violations
        return result

    if args.command == "truncate":
        algebra, _ = _load_algebra(args, result)
        if args.n is None:
            raise UserInputError("truncate needs --n")
        result["algebra"] = algebra_to_dict(truncate(algebra, args.n))
        return result

    if args.command == "homology":
        algebra, _ = _load_algebra(args, result)
        if args.k is None:
            raise UserInputError("homology needs --k")
        hom = homology(algebra, args.k)
        result["k"] = args.k
        result["modules"] = presentation_to_dict(hom, algebra.r_max)
        return result

    algebra, _ = _load_algebra(args, result)
    seq = _load_sequence(args, result, algebra)
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


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a user error, not a usage exit."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UserInputError(message)


def build_parser():
    parser = _Parser(
        prog="engine",
        description="Exact higher Toda brackets and matrix Massey products over Z/p^k.",
    )
    parser.add_argument(
        "command",
        choices=[
            "validate",
            "truncate",
            "homology",
            "massey",
            "toda",
            "chain-complex",
            "adams-d",
            "oracle",
        ],
    )
    parser.add_argument("--algebra", required=True, help="algebra document (JSON)")
    parser.add_argument("--sequence", help="sequence document (JSON)")
    parser.add_argument("--n", type=int, help="bracket order / truncation level")
    parser.add_argument("--k", type=int, help="homology level")
    parser.add_argument("--budget", type=int, help="enumeration budget (states)")
    parser.add_argument("--out", help="also write the result JSON to this file")
    return parser


def _user_error(command, exc):
    print(f"error: {exc}", file=sys.stderr)
    return {"command": command, "status": "error", "error": str(exc), "detail": exc.detail, "kind": "user"}


def _outcome(args):
    """The result document and exit code of a parsed command line."""
    try:
        return run(args), 0
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return {"command": args.command, "status": "error", "error": str(exc), "kind": "budget"}, 1
    except UserInputError as exc:
        return _user_error(args.command, exc), 1
    except Exception as exc:  # a bug in the engine: still one JSON document, exit 2
        import traceback  # here, not at the top: no other path of a command needs it

        traceback.print_exc()
        return {"command": args.command, "status": "error", "error": f"{type(exc).__name__}: {exc}", "kind": "internal"}, 2


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except UserInputError as exc:  # the command line itself did not parse
        _emit(_user_error(None, exc))
        return 1
    doc, code = _outcome(args)
    try:
        _emit(doc, args.out)
    except UserInputError as exc:  # the --out file cannot be written: report that instead
        _emit(_user_error(args.command, exc))
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
