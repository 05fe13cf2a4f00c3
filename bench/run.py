"""Closed-loop benchmark of the kq `engine` CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload's documents are generated from
the seed into a scratch directory of the checkout.  One client runs the
workload's engine commands one after the other, each in a fresh
`python3 -m kq` process, and checks every output.  A pass is one run of all
the workload's commands; passes repeat until S seconds have gone by and at
least MIN_PASSES have run, and every command's stdout must be byte-identical
across the passes.

With --trace 0 the last stdout line reports the end-to-end metrics: medians
over passes of the pass wall time and CPU time, the largest max-RSS of any
engine process in a pass, and the median wall time of SETUP_RUNS fresh
`engine validate` runs on the main algebra.  With --trace 1 untraced and
traced passes alternate (see tracer.py); it reports per-layer times as
medians over the traced passes, the exact counters, and the trace overhead.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PASSES = 2
SETUP_RUNS = 5
DEADLINE_S = 170  # every command is killed past this point of the run


class Client:
    """Runs engine commands one at a time and records what each cost."""

    def __init__(self, work, started):
        self.work = work
        self.started = started
        self.env = {k: v for k, v in os.environ.items() if k != "ENGINE_BUDGET"}
        self.env["PYTHONPATH"] = str(SRC)
        self.attempted = 0
        self.failures = []
        self.digests = {}

    def run(self, argv, traced_to=None):
        """(wall s, cpu s, max-RSS MB, exit code, stdout bytes) of one process."""
        if traced_to:
            prefix = [sys.executable, str(Path(__file__).with_name("tracer.py")), str(traced_to)]
        else:
            prefix = [sys.executable, "-m", "kq"]
        with open(self.work / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(prefix + list(argv), stdout=subprocess.PIPE, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(1.0, DEADLINE_S - (time.monotonic() - self.started)), proc.kill)
            timer.start()
            try:
                out = proc.stdout.read()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        rc = proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, rc, out

    def checked(self, command, traced_to=None):
        """Run and check one command; a failure is recorded, not raised."""
        wall, cpu, rss, rc, out = self.run(command.argv, traced_to)
        self.attempted += 1
        reason = command.check(rc, out)
        digest = hashlib.sha256(out).hexdigest()
        first = self.digests.setdefault(command.label, digest)
        if reason is None and digest != first:
            reason = "stdout differs from the first run of this command"
        if reason is not None:
            self.failures.append(f"{command.label}: {reason}")
        return wall, cpu, rss, len(out)

    def run_pass(self, commands, trace_dir=None):
        """One pass: (wall s, cpu s, peak RSS MB, stdout bytes, span files)."""
        cpu = peak = 0.0
        size = 0
        traces = []
        t0 = time.perf_counter()
        for t, command in enumerate(commands):
            spans = trace_dir / f"spans{t}.json" if trace_dir else None
            _, c, rss, n = self.checked(command, spans)
            cpu += c
            peak = max(peak, rss)
            size += n
            if spans:
                traces.append(json.loads(spans.read_text(encoding="utf-8")))
        return time.perf_counter() - t0, cpu, peak, size, traces


def measure(client, workload, seconds):
    setup = [client.checked(workload.setup)[0] for _ in range(SETUP_RUNS)]
    passes = []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        passes.append(client.run_pass(workload.commands))
    walls, cpus, peaks = zip(*[p[:3] for p in passes])
    print(f"{len(passes)} passes, wall {[round(w, 3) for w in walls]}, setup {[round(s, 3) for s in setup]}",
          file=sys.stderr)
    return {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (statistics.median(peaks), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def measure_traced(client, workload, seconds):
    trace_dir = client.work / "spans"
    trace_dir.mkdir()
    plain, traced, layers = [], [], []
    t0 = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - t0 < seconds:
        plain.append(client.run_pass(workload.commands)[0])
        wall, _, _, size, traces = client.run_pass(workload.commands, trace_dir)
        traced.append(wall)
        layers.append({**tracer.layer_metrics(traces), "cli.stdout_bytes": size})
    metrics = {}
    for spec in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]:
        name, unit = spec["name"], spec["unit"]
        if name == "trace.overhead_s":
            value = statistics.median(traced) - statistics.median(plain)
        elif unit == "s":
            value = statistics.median(m[name] for m in layers)
        else:
            value = layers[0][name]
            if any(m[name] != value for m in layers):
                client.failures.append(f"counter {name} differs between passes")
        metrics[name] = (value, unit)
    _report_layers(layers, plain, traced)
    return metrics


def _report_layers(layers, plain, traced):
    """The per-layer self-time split and the trace overhead, on stderr."""
    selfs = {k[: -len(".self_s")]: statistics.median(m[k] for m in layers) for k in layers[0] if k.endswith(".self_s")}
    total = sum(selfs.values()) or 1.0
    print(f"traced pass {statistics.median(traced):.3f} s, untraced {statistics.median(plain):.3f} s", file=sys.stderr)
    for layer, s in sorted(selfs.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:40s} self {s:9.4f} s  {100 * s / total:5.1f}%", file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "kq" / "cli.py").is_file():
        print(f"error: no kq sources under {SRC}", file=sys.stderr)
        return 2
    started = time.monotonic()
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        client = Client(work, started)
        workload = workloads.WORKLOADS[args.workload](work, args.seed)
        # compile the engine's modules once, as an installed engine would have them
        subprocess.run([sys.executable, "-c", "import kq.cli"], env=client.env, cwd=ROOT, check=True)
        if args.trace:
            metrics = measure_traced(client, workload, args.seconds)
        else:
            metrics = measure(client, workload, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for failure in client.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not client.failures,
        "attempted": client.attempted,
        "failed": len(client.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
