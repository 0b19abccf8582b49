"""gkmcohom benchmark: one client, closed loop, in-process CLI invocations.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each op calls ``gkmcohom.cli.main(argv)`` on a generated graph file, so
argument parsing, JSON load, compute, report and JSON emit are all timed.
A pass runs the workload's fixed op list once; passes repeat until the
next one would end after ``--seconds``. Output checks run between passes,
outside the timed region.

``--trace 0`` reports the end-to-end metrics: medians over the passes,
plus ``setup_s`` and the process's peak resident memory. ``setup_s`` is
the median over fresh interpreters that generate the inputs, import
gkmcohom and run the warm-up op; one starts before each pass, inside the
``--seconds`` window, so set-up and passes sample the same stretch of
the host's time. Every time of ``--trace 0`` is scaled to a reference
host speed by ``hostspeed.py``, which samples the speed throughout the
window. ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics of ``tracer.py`` with the tracing overhead, all
from wall time; the spans of the last traced pass go to ``perfbench/out``.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import workloads
from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
KINDS = ("cohomology", "obstruction", "thom", "sw", "checks")


class Pass:
    """Timings and verdicts of one pass over the op list."""

    def __init__(self, ops, records, pass_s: float):
        self.pass_s = pass_s  # wall seconds
        self.timings: list[tuple] = []  # (op, start, wall seconds)
        self.failed: list[str] = []  # wrong exit code, failed check or exception
        self.wrong: list[str] = []  # failed output check
        digest = hashlib.sha256()
        for op, (start, wall, code, out, err) in zip(ops, records):
            digest.update(repr((code, out, err)).encode())
            self.timings.append((op, start, wall))
            output_ok = _output_ok(op, out)
            if not output_ok:
                self.wrong.append(op.name)
            if not output_ok or code != op.exit:
                self.failed.append(f"{op.name} (exit {code!r}, README exit {op.exit})")
        self.digest = digest.hexdigest()

    def seconds(self, scale=None) -> tuple[float, dict, dict]:
        """(pass, per kind, per op) seconds: the sum of the ops' times,
        each wall or ``scale(start, wall)``."""
        kind_s, op_s = dict.fromkeys(KINDS, 0.0), {}
        for op, start, wall in self.timings:
            t = wall if scale is None else scale(start, wall)
            kind_s[op.kind] += t
            op_s[op.name] = op_s.get(op.name, 0.0) + t
        return sum(op_s.values()), kind_s, op_s


def _output_ok(op, out: str) -> bool:
    try:
        return bool(op.check(json.loads(out) if out else None))
    except (ValueError, KeyError, TypeError):
        return False


def run_pass(cli, ops, tracer=None) -> Pass:
    records = []
    start = perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.start_op(i)
        records.append((perf_counter(), *workloads.run_op(cli.main, op)))
    return Pass(ops, records, perf_counter() - start)


def setup_time(workload: str, seed: int, workdir: Path) -> tuple[float, float]:
    """(start, wall seconds) of a fresh interpreter that performs the whole set-up."""
    cmd = [sys.executable, str(HERE / "workloads.py"), workload, str(seed), str(workdir)]
    start = perf_counter()
    # no timeout: with one, subprocess polls for the exit in steps of up
    # to 50 ms, which would quantize these sub-second times
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return start, perf_counter() - start


def measure(cli, ops, seconds: float, setup) -> tuple[list[Pass], list[float], HostSpeed]:
    """Alternate ``setup()`` and a pass until the next pair would end after
    ``seconds``, sampling the host's speed during the passes; returns the
    passes, the set-up times at reference speed and the samples."""
    passes, setups = [], []
    start = perf_counter()
    with HostSpeed() as speed:
        while True:
            with speed.paused():
                setups.append(setup())
            passes.append(run_pass(cli, ops))
            pair_s = statistics.median(w for _, w in setups) + statistics.median(p.pass_s for p in passes)
            if perf_counter() - start + pair_s > seconds:
                break
    return passes, [speed.scaled(*s) for s in setups], speed


def measure_traced(gk, ops, seconds: float, tracer, trace_path: Path):
    """Alternate untraced and traced passes; returns both lists and metrics."""
    plain, traced, layers = [], [], []
    start = perf_counter()
    while True:
        plain.append(run_pass(gk.cli, ops))
        tracer.reset()
        tracer.install()
        try:
            traced.append(run_pass(gk.cli, ops, tracer))
        finally:
            tracer.uninstall()
        layers.append(tracer.metrics(traced[-1].pass_s))
        pair_s = plain[-1].pass_s + traced[-1].pass_s
        if perf_counter() - start + pair_s > seconds:
            break
    tracer.write(trace_path)
    metrics = {name: statistics.median_low(m[name] for m in layers) for name in layers[0]}
    metrics["trace.overhead_ratio"] = (
        statistics.median(p.pass_s for p in traced) / statistics.median(p.pass_s for p in plain) - 1
    )
    return plain, traced, metrics


def _stat(xs) -> str:
    return f"median {statistics.median(xs):.4f} (min {min(xs):.4f}, max {max(xs):.4f}, n={len(xs)})"


def _report(workload: str, seed: int, ops, passes: list[Pass], times: list, extra: dict) -> None:
    """Human-readable summary: every end-to-end metric with its unit;
    ``times`` holds ``Pass.seconds`` of each pass."""
    n = len(passes)
    print(f"workload {workload}, seed {seed}: {n} untraced passes of {len(ops)} ops")
    print(f"  pass_s         {_stat([t[0] for t in times])} s")
    for kind in KINDS:
        values = [t[1][kind] for t in times]
        if any(values):
            print(f"  {kind + '_s':14s} {_stat(values)} s")
    for name, (value, unit) in extra.items():
        print(f"  {name:14s} {value:.4f} {unit}")
    attempted = n * len(ops)
    failed = sum(len(p.failed) for p in passes)
    print(f"  fail_ratio     {failed / attempted:.4f} ({failed} of {attempted} ops)")
    for reason in sorted(set(f for p in passes for f in p.failed)):
        print(f"    failed: {reason}")
    print("  per op, median over passes:")
    for name in times[0][2]:
        print(f"    {statistics.median(t[2][name] for t in times):9.4f} s  {name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        try:
            gk, ops = workloads.prepare(args.workload, args.seed, workdir / "run")
        except ImportError as exc:
            print(f"error: cannot import gkmcohom from this checkout: {exc}", file=sys.stderr)
            return 1
        if args.trace:
            import tracer  # only traced runs load the wrappers

            trace_path = OUT / f"trace-{args.workload}.jsonl"
            plain, traced, metrics = measure_traced(gk, ops, args.seconds, tracer.Tracer(), trace_path)
            _report(args.workload, args.seed, ops, plain, [p.seconds() for p in plain], {})
            print(f"  traced passes  {_stat([p.pass_s for p in traced])} s")
            print(f"  trace overhead {metrics['trace.overhead_ratio']:.4f}; spans in {trace_path}")
            passes = plain + traced
            units = {name: unit for name, (unit, _) in tracer.metric_specs().items()}
        else:
            dirs = (workdir / f"setup{i}" for i in itertools.count())
            passes, setup, speed = measure(
                gk.cli, ops, args.seconds, lambda: setup_time(args.workload, args.seed, next(dirs))
            )
            times = [p.seconds(speed.scaled) for p in passes]
            metrics = {
                "pass_s": statistics.median(t[0] for t in times),
                "checks_s": statistics.median(t[1]["checks"] for t in times),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = {"pass_s": "s", "checks_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
            print(f"times in seconds at reference speed; wall pass_s {_stat([p.pass_s for p in passes])} s; "
                  f"reference loop {_stat([x * 1e3 for x in speed.lengths])} ms")
            _report(args.workload, args.seed, ops, passes, times, {
                "setup_s": (metrics["setup_s"], f"s (median of {len(setup)} fresh interpreters, one before each pass)"),
                "peak_rss_mb": (metrics["peak_rss_mb"], "MB"),
            })
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = len({p.digest for p in passes}) == 1 and not any(p.wrong for p in passes)
    result = {
        "correct": correct,
        "attempted": len(ops) * len(passes),
        "failed": sum(len(p.failed) for p in passes),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
