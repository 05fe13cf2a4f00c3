"""Traced engine runs: spans and counters at the kq module boundaries.

As a program, ``python3 bench/tracer.py SPANS_FILE ARGS...`` (with ``src`` on
PYTHONPATH) wraps the public functions listed in SPANS under every name that
callers resolve them by, runs ``kq.cli.main(ARGS)`` and, at exit, writes every
span as [name, start, end, parent index] plus the shape counters to
SPANS_FILE.  Nothing under ``src/kq`` changes.

``layer_metrics`` turns the span files of one pass into per-layer metrics:
``<layer>.s`` is inclusive time (outermost spans of that name only),
``<layer>.self_s`` is that time minus the time covered by child spans, and
``<layer>.calls`` counts the calls.
"""

import functools
import json
import sys
import time

# (module, attribute) of every wrapped callable, and its layer name.
SPANS = [
    ("kq.cli", "main", "cli.main"),
    ("kq.cli", "_emit", "cli.emit"),
    ("kq.documents", "parse_algebra", "documents.parse_algebra"),
    ("kq.chain_algebra", "ChainAlgebra.validate", "chain_algebra.validate"),
    ("kq.chain_algebra", "homology", "chain_algebra.homology"),
    ("kq.chain_algebra", "truncate", "chain_algebra.truncate"),
    ("kq.exact_linalg", "solve_dense", "exact_linalg.solve_dense"),
    ("kq.exact_linalg", "quotient_presentation", "exact_linalg.quotient_presentation"),
    ("kq.cubical", "complex_basis", "cubical.complex_basis"),
    ("kq.cubical", "cube_ball", "cubical.cube_ball"),
    ("kq.cubical", "corner_ball", "cubical.corner_ball"),
    ("kq.track", "tensor", "track.tensor"),
    ("kq.track", "inject_cubical", "track.inject_cubical"),
    ("kq.track", "glue", "track.glue"),
    ("kq.track", "extend", "track.extend"),
    ("kq.track", "obstruction", "track.obstruction"),
    ("kq.toda", "toda_bracket", "toda.toda_bracket"),
    ("kq.toda", "oracle_bracket_set", "toda.oracle_bracket_set"),
    ("kq.toda", "build_chain_complex", "toda.build_chain_complex"),
    ("kq.toda", "adams_d", "toda.adams_d"),
    ("kq.toda", "triple_indeterminacy", "toda.triple_indeterminacy"),
]

COUNTERS = [
    "exact_linalg.solve_dense.rows",
    "exact_linalg.solve_dense.zero_rows",
    "exact_linalg.solve_dense.max_rows",
    "exact_linalg.solve_dense.nonzeros",
    "exact_linalg.solve_dense.kernel_rank",
    "cubical.complex_basis.cells",
    "oracle_support.budget_spent",
]


def _count_solve(counts, args, result):
    A = args[0]
    counts["exact_linalg.solve_dense.rows"] += len(A)
    counts["exact_linalg.solve_dense.zero_rows"] += sum(1 for row in A if not any(row))
    counts["exact_linalg.solve_dense.max_rows"] = max(counts["exact_linalg.solve_dense.max_rows"], len(A))
    counts["exact_linalg.solve_dense.nonzeros"] += sum(1 for row in A for v in row if v)
    if result is not None:
        counts["exact_linalg.solve_dense.kernel_rank"] += result.kernel_rank


def _count_cells(counts, args, result):
    counts["cubical.complex_basis.cells"] += len(result.cells())


SHAPES = {"exact_linalg.solve_dense": _count_solve, "cubical.complex_basis": _count_cells}


class Recorder:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.stack = []
        self.counts = {name: 0 for name in COUNTERS}
        self.counts.update({f"{layer}.calls": 0 for _, _, layer in SPANS})

    def wrap(self, layer, fn):
        shape = SHAPES.get(layer)
        calls = f"{layer}.calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[calls] += 1
            idx = len(self.spans)
            span = [layer, time.perf_counter(), None, self.stack[-1] if self.stack else -1]
            self.spans.append(span)
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if shape is not None:
                shape(self.counts, args, result)
            return result

        return traced

    def install(self):
        """Replace every reference to each wrapped callable in the kq modules."""
        import importlib

        importlib.import_module("kq.cli")
        modules = [mod for name, mod in sys.modules.items() if name == "kq" or name.startswith("kq.")]
        for mod_name, attr, layer in SPANS:
            owner = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(layer, getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            traced = self.wrap(layer, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
        budget = importlib.import_module("kq.oracle_support").EnumerationBudget
        charge = budget.charge

        def counted_charge(budget_self, n=1):
            self.counts["oracle_support.budget_spent"] += n
            return charge(budget_self, n)

        budget.charge = counted_charge

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def layer_metrics(traces):
    """Per-layer times and counts summed over the span files of one pass."""
    out = {}
    for _, _, layer in SPANS:
        out[f"{layer}.s"] = 0.0
        out[f"{layer}.self_s"] = 0.0
    for trace in traces:
        spans = trace["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for idx, (name, start, end, parent) in enumerate(spans):
            out[f"{name}.self_s"] += end - start - child_time[idx]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                out[f"{name}.s"] += end - start
        for name, value in trace["counts"].items():
            if name.endswith(".max_rows"):
                out[name] = max(out.get(name, 0), value)
            else:
                out[name] = out.get(name, 0) + value
    spent = out["oracle_support.budget_spent"]
    out["track.extend.per_state"] = out["track.extend.calls"] / spent if spent else 0.0
    return out


def main(argv):
    spans_file, args = argv[0], argv[1:]
    recorder = Recorder()
    recorder.install()
    import kq.cli

    try:
        return kq.cli.main(args)
    finally:
        recorder.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
