"""Tests of the benchmark itself.  From the repository root:

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import run  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())


@pytest.fixture
def ctx(tmp_path):
    return run.make_context(REPO, tmp_path)


def test_request_seeds_come_from_the_benchmark_generator():
    assert workloads.request_seed("keygen-cli", 1, 0) == 0x8139E813BE7B0809
    seeds = [workloads.request_seed("search-full", 7, i) for i in range(50)]
    assert seeds == [workloads.request_seed("search-full", 7, i) for i in range(50)]
    assert len(set(seeds)) == 50
    assert all(0 <= s < 1 << 64 for s in seeds)
    assert workloads.request_seed("search-full", 8, 0) != seeds[0]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_canary_request_matches_pinned_digest(ctx, name):
    loop = run.Loop(workloads.WORKLOADS[name], ctx, run.DEFAULT_SEED)
    loop.one(0)
    assert loop.failures == []
    assert loop.digests == [run.PINNED[name]]


class TamperedSearch(workloads.SearchFull):
    """Sends a real request, then edits the report before it is checked."""

    def __init__(self, edit):
        self.edit = edit

    def run(self, ctx, seed, index, traced=False):
        raw = super().run(ctx, seed, index, traced)
        path = raw.files["report"]
        doc = json.loads(path.read_text())
        self.edit(doc)
        path.write_text(json.dumps(doc))
        return raw


def _flip_low_bit(doc):
    doc["k_opt"] = hex(int(doc["k_opt"], 16) ^ 1)


def _move_point(doc):
    doc["public_point"]["x"] = hex(int(doc["public_point"]["x"], 16) + 1)


@pytest.mark.parametrize(
    "edit",
    [
        _flip_low_bit,
        _move_point,
        lambda doc: doc.update(ones=doc["ones"] + 1),
        lambda doc: doc.update(extra=1),
        lambda doc: doc["history"].pop(),
        lambda doc: doc.update(k_opt="0x0"),
    ],
    ids=["k_opt", "public_point", "ones", "schema", "history", "range"],
)
def test_tampered_report_counts_as_failed_request(ctx, edit):
    loop = run.Loop(TamperedSearch(edit), ctx, seed=3)
    loop.one(0)
    assert len(loop.failures) == 1
    assert loop.digests == []


def test_benchmark_csv_checks(ctx):
    wl = workloads.WORKLOADS["audit-trials"]
    raw = wl.run(ctx, 5, 0)
    wl.verify(ctx, raw)
    summary = json.loads(raw.files["summary"].read_text())
    text = raw.files["csv"].read_text()
    lines = text.splitlines(keepends=True)

    def fails(csv_text, doc=summary):
        with pytest.raises(verify.VerificationError):
            verify.check_benchmark(doc, csv_text, ctx.validators,
                                   ctx.report.CSV_COLUMNS, raw.expect)

    fails("".join(lines[:-1]))
    fails("x" + text)
    fails(text.replace("optimized", "random", 1))
    fails(text, dict(summary, trials=summary["trials"] + 1))


def test_failed_process_is_a_failed_request():
    with pytest.raises(verify.VerificationError):
        verify.check_process(2, "", "ecscalar: bad\n")
    with pytest.raises(verify.VerificationError):
        verify.check_process(0, "", "warning\n")


def test_reference_scalar_mul_matches_the_program():
    from ecscalar.curve import scalar_mul
    from ecscalar.registry import load_builtin

    params = load_builtin("p192").params
    for k in (1, 2, 3, 12345, params.n - 1):
        q = scalar_mul(k, params.g, params)
        assert verify.ref_scalar_mul(k, params.g.x, params.g.y, params.a, params.p) == (q.x, q.y)
    assert verify.ref_scalar_mul(params.n, params.g.x, params.g.y, params.a, params.p) is None


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    value, pct = run.tail([float(i) for i in range(1, 15)])
    assert value == 8.0 and pct == pytest.approx(100 * 8 / 14)
    assert run.tail([5.0]) == (5.0, 100.0)


def test_times_are_scaled_to_the_reference_host_speed():
    ref = run.PROBE_REF_MS
    assert run.host_scale([ref / 2, ref / 2, 4 * ref]) == 2.0
    loop = run.Loop(workloads.WORKLOADS["audit-trials"], None, 1)
    loop.latencies_ms = [float(i) for i in range(1, 22)]
    loop.probes_ms = [2 * ref] * 21
    loop.maxrss_kb = [0] * 21
    metrics, extra = run.end_to_end(loop, {"setup_s": 0.2}, loop.workload)
    assert metrics["request_p50_ms"][0] == 5.5 and extra["unscaled"]["request_p50_ms"] == 11.0
    assert metrics["setup_s"][0] == 0.1
    assert metrics["requests_per_s"][0] == 2 * extra["unscaled"]["requests_per_s"]


def test_self_times_subtract_same_thread_children_only():
    tracer = Tracer()
    rec = array("q")
    # id, parent, name, request, thread, t0, t1, c0, c1
    rec.extend((0, -1, tracer.name_id("request"), 7, 1, 0, 100, 0, 100))
    rec.extend((1, 0, tracer.name_id("cli.main"), 7, 1, 0, 90, 0, 90))
    rec.extend((2, 1, tracer.name_id("curve.scalar_mul"), 7, 1, 10, 40, 10, 40))
    rec.extend((3, 0, tracer.name_id("statbattery.run_battery"), 7, 2, 5, 60, 0, 20))
    cells, root_wall = self_times(rec, tracer.names)
    assert root_wall == {7: 100}
    assert cells[7]["cli.main"] == [1, 60]
    assert cells[7]["curve.scalar_mul"] == [1, 30]
    assert cells[7]["statbattery.run_battery"] == [1, 20]
    cells, _ = self_times(rec, tracer.names, inner_ns=1, outer_ns=2)
    assert cells[7]["cli.main"] == [1, 60 - 3 - 1]
    assert cells[7]["curve.scalar_mul"] == [1, 29]


def test_tracing_leaves_outputs_byte_identical(tmp_path):
    import ecscalar.cli as cli
    from ecscalar import curve

    def report(out):
        assert cli.main(["generate", "--curve", "p192", "--no-early-stop",
                         "--max-generations", "3", "--seed", "9", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        doc["manifest"].pop("timestamp")
        return doc

    original = curve.scalar_mul
    plain = report(tmp_path / "a.json")
    tracer = Tracer()
    tracer.install()
    try:
        tracer.request = 0
        traced = report(tmp_path / "b.json")
    finally:
        tracer.uninstall()
    assert traced == plain
    assert curve.scalar_mul is original and cli.scalar_mul is original
    assert tracer.missing == []
    names = {tracer.names[r[2]] for r in (tracer.records[i:i + 9]
                                         for i in range(0, len(tracer.records), 9))}
    assert {"cli.main", "de_opt.generation", "kernels.crossover_fill",
            "curve.scalar_mul", "report.dump_json"} <= names
    assert tracer.counters[(0, "de_opt.generations_run")] == 3


def test_metric_names_match_benchmark_json():
    loop = run.Loop(workloads.WORKLOADS["audit-trials"], None, 1)
    loop.latencies_ms = [1.0, 2.0, 3.0]
    loop.probes_ms = [1.5, 1.5, 1.5]
    loop.maxrss_kb = [0, 0, 0]
    setup = {"setup_s": 0.1, "interp_start_ms": 1.0, "import_ms": 1.0}
    e2e, _ = run.end_to_end(loop, setup, loop.workload)
    assert list(e2e) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert [u for _, u in e2e.values()] == [m["unit"] for m in BENCHMARK["end_to_end"]]

    tracer = Tracer()
    with tracer.request_span(0):
        pass
    layers = run.per_layer(tracer, [1.0], [1.0], setup, (0.0, 0.0), [1.5])
    assert list(layers) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert [u for _, u in layers.values()] == [m["unit"] for m in BENCHMARK["per_layer"]]

    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    predictions = json.loads((REPO / "perfbench" / "predictions.json").read_text())
    names = {m["name"] for m in BENCHMARK["per_layer"] + BENCHMARK["end_to_end"]}
    for row in predictions["predictions"]:
        assert set(row["layer_metrics"]) | set(row["moves"]) <= names
        assert set(row["workloads"]) <= set(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "keygen-cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
