"""Batch command line interface.

Commands read an algebra document (and usually a sequence document), run one
computation, and print a canonical JSON result on stdout.  Output is byte
identical across runs on identical inputs: keys are sorted, there are no
timestamps, and the engine version and input hashes are embedded.  Exit code
0 means success, 1 a user error (diagnostics in the JSON on stdout and a
human message on stderr), 2 an internal error (an error document on stdout
and the traceback on stderr).

validate, truncate and homology run here and load only the algebra half of
the engine (errors, value, exact_linalg, chain_algebra, documents).  The
commands that take a sequence leave run() through one import of
kq.tower_cli, which brings in toda and oracle_support, so a process pays to
load the tower only when it walks one.  No command loads the cubical model
(cubical, track).
"""

import argparse
import hashlib
import io
import json
import os
import sys

from . import __version__
from .chain_algebra import homology, truncate
from .documents import algebra_to_dict, parse_algebra, presentation_to_dict
from .errors import BudgetExceededError, UserInputError


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
    """Write the document to out_path, if given, and then to stdout, and flush stdout.

    False when stdout cannot be written, which is reported on stderr here.
    """
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            raise UserInputError(f"cannot write the --out file: {out_path}: {exc.strerror or exc}")
    try:
        sys.stdout.write(payload)
        sys.stdout.flush()
    except OSError as exc:
        print(f"error: cannot write the result to stdout: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def _load_algebra(args, result, require_valid=True):
    doc, result["inputs"]["algebra_sha256"] = _load_json(args.algebra, "algebra")
    algebra, violations = parse_algebra(doc)
    if violations and require_valid:
        raise UserInputError(
            "the algebra violates its axioms",
            detail={"violations": violations},
        )
    return algebra, violations


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
    if not args.sequence:
        raise UserInputError("this command needs --sequence")
    doc, result["inputs"]["sequence_sha256"] = _load_json(args.sequence, "sequence")
    from .tower_cli import run_tower  # the tower's one import: the commands above need none of it

    return run_tower(args, result, algebra, doc)


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
    """Run one command line and return its exit code; the process goes on."""
    try:
        args = build_parser().parse_args(argv)
    except UserInputError as exc:  # the command line itself did not parse
        _emit(_user_error(None, exc))
        return 1
    doc, code = _outcome(args)
    try:
        written = _emit(doc, args.out)
    except UserInputError as exc:  # the --out file cannot be written: report that instead
        _emit(_user_error(args.command, exc))
        return 1
    return code if written else 1


def entry_point():
    """Run main() on sys.argv and end the process with its exit code.

    Both `python -m kq` and the `engine` script end here.  _emit has written
    and flushed the result, stderr is flushed here, and os._exit then skips
    the interpreter's teardown of every module and object.  stdout is not
    flushed again: after a failed write it still holds the result, which
    _emit has already reported.  Skipping the teardown loses nothing: kq
    registers no atexit handler, and the --out file is closed by its with
    block inside _emit.  A SystemExit from argparse (--help) leaves through
    the normal interpreter exit.
    """
    code = main()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry_point()
