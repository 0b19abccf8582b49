"""Self-tests of the benchmark: inputs, checks, host-speed scaling and the tracer.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import io
import json
import random
import shutil
import signal
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import graphs  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import BUSY, END, NAME, PARENT, Tracer, metric_specs  # noqa: E402

gk = workloads.import_gkmcohom()
from gkmcohom import cli  # noqa: E402

# ops that take more than about half a second each; the rest run in the tests
HEAVY = {
    "cohomology Fl4 Z<=4", "cohomology CP4 Z3<=6", "cohomology Fl4-skew Z<=4",
    "obstruction Q4k3", "cohomology Q5 Z2<=4", "cohomology Q4k3 Z2<=6",
    "sw Fl5", "validate Fl5", "spin Fl5",
}


@pytest.fixture
def workdir():
    run.OUT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=run.OUT))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _cli(argv) -> tuple[int, dict]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(list(argv) + ["--json"])
    return code, json.loads(out.getvalue())


def _light_ops(workload: str, seed: int, workdir: Path):
    _, ops = workloads.prepare(workload, seed, workdir / f"{workload}-{seed}")
    seen, light = set(), []
    for op in ops:
        if op.name not in HEAVY and op.name not in seen:
            seen.add(op.name)
            light.append(op)
    return light


@pytest.mark.parametrize(
    "doc",
    [
        graphs.flag(3),
        graphs.flag(4),
        graphs.cube(workloads.Q4_LABELS),
        graphs.cube(workloads.Q5_LABELS),
        graphs.cube(workloads.Q4K3_LABELS),
        graphs.prism(32),
        graphs.skewed(graphs.flag(3)),
    ],
    ids=["Fl4", "Fl5", "Q4", "Q5", "Q4k3", "prism32", "Fl4-skew"],
)
def test_generated_graphs_validate(doc, workdir):
    path = workdir / "g.json"
    path.write_text(json.dumps(graphs.shuffled(doc, random.Random(3))))
    code, report = _cli(["validate", str(path)])
    assert code == 0 and report["ok"]


def test_projective_space_fails_only_effectiveness(workdir):
    # labels e_i - e_j in ambient coordinates span a corank-1 sublattice
    path = workdir / "cp4.json"
    path.write_text(json.dumps(graphs.projective(4)))
    code, report = _cli(["validate", str(path)])
    assert code == 1
    assert [c["check"] for c in report["checks"] if not c["ok"]] == ["effective"]


def test_flag_graph_shape():
    fl5 = graphs.flag(4)
    assert (len(fl5["vertices"]), len(fl5["edges"]), fl5["torus_rank"]) == (120, 600, 4)


def test_shuffle_keeps_labels():
    doc = graphs.flag(3)
    out = graphs.shuffled(doc, random.Random(5))
    key = lambda e: (tuple(sorted((e["u"], e["v"]))), tuple(e["label"]))
    assert sorted(map(key, out["edges"])) == sorted(map(key, doc["edges"]))
    assert sorted(out["vertices"]) == sorted(doc["vertices"])
    assert out["vertices"] != doc["vertices"]


def _summary(out: str):
    """The seed-independent part of a report: ranks and verdicts."""
    if not out:
        return None
    r = json.loads(out)
    keys = ("verdict", "failing_degree", "ok", "all_match", "nonequivariant")
    s = {k: r[k] for k in keys if k in r}
    if "degrees" in r:
        s["ranks"] = [row["rank"] for row in r["degrees"]]
    return s


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_two_seeds_same_ranks_and_verdicts(workload, workdir):
    results = []
    for seed in (1, 2):
        ops = _light_ops(workload, seed, workdir)
        rows = []
        for op in ops:
            _, code, out, _ = workloads.run_op(cli.main, op)
            if op.name != "thom k4":  # the one documented exit-code defect
                assert code == op.exit, op.name
            assert run._output_ok(op, out), op.name
            rows.append((op.name, code, _summary(out)))
        results.append(rows)
    assert results[0] == results[1]


def test_traced_and_untraced_outputs_identical(workdir):
    ops = _light_ops("reduction-special", 1, workdir) + _light_ops("paths-structure", 1, workdir)
    plain = run.run_pass(cli, ops)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run.run_pass(cli, ops, tracer)
    finally:
        tracer.uninstall()
    assert plain.digest == traced.digest
    metrics = tracer.metrics(traced.pass_s)
    assert set(metrics) == set(metric_specs())
    assert metrics["cli.main.calls"] == len(ops)
    assert metrics["intlinalg.hnf.calls"] > 0 and metrics["intlinalg.hnf.out_max_bits"] > 0


def _bindings() -> dict:
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "gkmcohom" or name.startswith("gkmcohom.")
        for attr, value in vars(module).items()
    }


def test_tracer_rebinds_aliases_and_restores_everything():
    before = _bindings()
    hnf = gk.intlinalg.hnf
    tracer = Tracer()
    tracer.install()
    try:
        # graph.py imports hnf by name; both bindings carry the same wrapper
        assert gk.graph.hnf is not hnf and gk.graph.hnf is gk.intlinalg.hnf
        assert gk.thom.membership_z is gk.cohomology.membership_z
        gk.graph.is_effective(gk.fixtures.paper8())
        names = [s[NAME] for s in tracer.spans]
        assert names == ["graph.is_effective", "intlinalg.hnf"]
        assert tracer.spans[1][PARENT] == 0
    finally:
        tracer.uninstall()
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())


def test_generator_stays_lazy_and_is_timed_over_iteration():
    tracer = Tracer()
    tracer.install()
    try:
        gen = gk.connection.enumerate_connections(gk.fixtures.paper8(), limit=2)
        assert tracer.spans == []
        first = next(gen)
        assert first is not None and len(tracer.spans) > 0
        assert tracer.spans[0][NAME] == "connection.enumerate_connections"
        assert tracer.spans[0][END] is None
        rest = list(gen)
    finally:
        tracer.uninstall()
    span = tracer.spans[0]
    assert len(rest) == 1 and span[END] is not None and span[BUSY] > 0
    assert all(s[PARENT] == 0 for s in tracer.spans[1:])


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in metric_specs().items()
    }
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"pass_s", "checks_s", "setup_s", "peak_rss_mb"}


def test_scaled_takes_out_samples_and_integrates_speed():
    speed = hostspeed.HostSpeed()
    ref = hostspeed.REFERENCE_S
    # samples at t = 1..8: half speed at t = 2, full speed elsewhere
    speed.starts = [float(t) for t in range(1, 9)]
    speed.lengths = [ref, 2 * ref] + [ref] * 6
    # [0.5, 2.5) holds the first two samples: mean speed 0.75
    assert speed.scaled(0.5, 2.0) == pytest.approx((2.0 - 3 * ref) * 0.75)
    # no sample inside [4.1, 4.2): three neighbours on each side, t = 2..7
    assert hostspeed.NEIGHBOURS == 3
    assert speed.scaled(4.1, 0.1) == pytest.approx(0.1 * 5.5 / 6)


def test_host_speed_samples_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSpeed() as speed:
        start = perf_counter()
        while perf_counter() - start < 0.2:
            pass
        with speed.paused():
            n = len(speed.lengths)
            while perf_counter() - start < 0.3:
                pass
            assert len(speed.lengths) == n
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert n >= 3 and speed.starts == sorted(speed.starts)
