#!/usr/bin/env python3
"""ecscalar benchmark: one workload, closed loop, one client.

Run from the root of an ecscalar checkout (it imports ``src/ecscalar``):

    python3 perfbench/run.py --workload keygen-cli --seed 1 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
requests untraced for half the budget and traced for the other half and
prints the per-layer metrics.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before it
repeat each metric with its unit and give the environment, the active kernel,
the kernel gate, the canary check and the error rate.  A fuller record
(every latency, failure messages) goes to ``perfbench/out/``.

End-to-end times are scaled to a reference host speed by the run's median
host-speed probe (see ``host_scale``); the unscaled figures are printed too.
``--seconds`` is the budget of measured request time.  A workload that
rotates through curves always ends on a whole rotation, so each curve gets
the same number of requests.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter_ns

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from tracer import Tracer, calibrate, self_times  # noqa: E402
import verify  # noqa: E402
from workloads import WORKLOADS, Context  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPEATS = 9
# Host-speed probe: the median of PROBE_REPS timings of a fixed loop of
# 64-bit integer mixing, taken right before every request.  End-to-end times
# are scaled to a host on which the probe's run median is PROBE_REF_MS
# (about its median on a shared 2-vCPU VM), see ``host_scale``.
PROBE_REPS = 3
PROBE_LOOP = 4_000
PROBE_REF_MS = 1.5
_M64 = (1 << 64) - 1
LAYERS = ("proc", "cli", "registry", "modmath", "curve", "de_opt", "kernels",
          "rng", "bitcodec", "statbattery", "report")

# Digest of request 0 of DEFAULT_SEED (see verify.payload_digest).  Every run
# re-sends that request before measuring, so any change to a program output
# shows here whatever --seed the run was given.
PINNED = {
    "keygen-cli": "2ca606e6cb824f8c63a9eb7d64571d3191627eed8fc5cdf12769e866cc71ed3c",
    "search-full": "d5e339fc6073e27deb8d2b2c2266734b2fd8ff1961dc9f4f6eaf08dda3215e8a",
    "audit-trials": "66cb998dc58c7bf9624e52a24e3cec4e542526186f681c68f790d4d15636c9ea",
}


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, pct).

    The rank never drops below the median's, so with fewer than 21 samples
    the tail is the upper median (and with one sample, that sample).
    """
    xs = sorted(values)
    n = len(xs)
    rank = max(n - 10, n // 2 + 1)
    return xs[rank - 1], 100.0 * rank / n


def _child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def _time_child(cmd: list[str], env: dict, cwd: Path) -> tuple[int, str]:
    t0 = perf_counter_ns()
    done = subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, text=True,
                          timeout=120)
    t1 = perf_counter_ns()
    if done.returncode != 0:
        raise RuntimeError(f"{cmd[1:]} exited {done.returncode}: {done.stderr[-300:]}")
    return t1 - t0, done.stdout


def cpu_probe_ms() -> float:
    """How long a fixed loop of SplitMix64-style integer mixing (the kind of
    arithmetic the program spends its time on) takes on the host now."""
    times = []
    for _ in range(PROBE_REPS):
        t0 = perf_counter_ns()
        s = 1
        for _ in range(PROBE_LOOP):
            s = (s + 0x9E3779B97F4A7C15) & _M64
            z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & _M64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        times.append((perf_counter_ns() - t0) / 1e6)
    return statistics.median(times)


def host_scale(probes_ms: list[float]) -> float:
    """Factor that takes this run's times to the reference host speed.

    Shared hosts change speed: on a 2-vCPU VM shared with other tenants, raw
    run medians drifted by a third within minutes, while the ratio of a
    run's times to its median probe stayed within a few percent.
    """
    return PROBE_REF_MS / statistics.median(probes_ms)


class SetupSampler:
    """Fresh-process timings: interpreter start, ``import ecscalar.cli`` and
    the first ``load_builtin`` of each curve.  Called between requests, it
    spreads its samples over the run, so they see the same machine as the
    requests do."""

    def __init__(self, ctx: Context, curves, budget_s: float) -> None:
        self.ctx = ctx
        self.cmd = [sys.executable, str(BENCH_DIR / "child.py"), "setup", *curves]
        self.step_ms = budget_s * 1e3 / SETUP_REPEATS
        self.interp: list[int] = []
        self.imports: list[int] = []
        self.totals: list[int] = []
        _time_child(self.cmd, ctx.env, ctx.root)  # writes the .pyc caches once

    def __call__(self, busy_ms: float) -> None:
        if len(self.totals) < SETUP_REPEATS and busy_ms >= len(self.totals) * self.step_ms:
            self.sample()

    def sample(self) -> None:
        self.interp.append(
            _time_child([sys.executable, "-c", "pass"], self.ctx.env, self.ctx.root)[0])
        out = json.loads(_time_child(self.cmd, self.ctx.env, self.ctx.root)[1])
        self.imports.append(out["import_ns"])
        self.totals.append(out["import_ns"] + out["load_ns"])

    def result(self) -> dict:
        while len(self.totals) < SETUP_REPEATS:
            self.sample()
        return {
            "interp_start_ms": statistics.median(self.interp) / 1e6,
            "import_ms": statistics.median(self.imports) / 1e6,
            "setup_s": statistics.median(self.totals) / 1e9,
            "setup_s_samples": [t / 1e9 for t in self.totals],
        }


def kernel_gate(ctx: Context) -> str:
    """The backend-agreement assertion of benchmarks/backend_bench.py."""
    try:
        from ecscalar import _fallback, _speedups
        from ecscalar.de_opt import DEConfig, optimize
    except ImportError as exc:
        return f"skipped ({exc})"
    params = ctx.registry.load_builtin("p256").params
    config = DEConfig(seed=2024, early_stop=False, max_generations=30)
    same = optimize(config, params, impl=_fallback) == optimize(config, params, impl=_speedups)
    return "passed" if same else "FAILED: compiled and Python kernels disagree"


def kernel_backend() -> str:
    try:
        return importlib.import_module("ecscalar.kernels").BACKEND
    except (ImportError, AttributeError):
        return "absent"


def environment() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "loadavg_start": os.getloadavg(),
    }


class Loop:
    """Runs a workload's requests in a closed loop and keeps the outcomes."""

    def __init__(self, workload, ctx: Context, seed: int) -> None:
        self.workload = workload
        self.ctx = ctx
        self.seed = seed
        self.latencies_ms: list[float] = []
        self.busy_ms = 0.0
        self.probes_ms: list[float] = []
        self.maxrss_kb: list[int] = []
        self.failures: list[str] = []
        self.digests: list[str] = []

    def one(self, index: int, tracer: Tracer | None = None) -> None:
        wl = self.workload
        self.probes_ms.append(cpu_probe_ms())
        if tracer is None:
            raw = wl.run(self.ctx, self.seed, index)
        else:
            with tracer.request_span(index) as root:
                raw = wl.run(self.ctx, self.seed, index, traced=True)
        self.latencies_ms.append(raw.latency_ns / 1e6)
        self.busy_ms += raw.latency_ns / 1e6
        self.maxrss_kb.append(raw.maxrss_kb)
        try:
            self.digests.append(wl.verify(self.ctx, raw))
            if tracer is not None and hasattr(wl, "merge_trace"):
                wl.merge_trace(self.ctx, tracer, root, index, raw)
        except (verify.VerificationError, OSError, ValueError, KeyError, TypeError) as exc:
            self.failures.append(f"request {index}: {type(exc).__name__}: {exc}")

    def until(self, budget_s: float, min_requests: int = 1,
              tracer: Tracer | None = None, between=None) -> None:
        """Send requests 0, 1, ... until their latencies sum to the budget,
        at least ``min_requests`` were sent and the curve rotation is whole.
        ``between`` is called after each request with the latency total of
        the whole loop."""
        index, start = 0, self.busy_ms
        while (self.busy_ms - start < budget_s * 1e3 or index < min_requests
               or index % self.workload.cycle):
            self.one(index, tracer)
            index += 1
            if between is not None:
                between(self.busy_ms)


def end_to_end(loop: Loop, setup: dict, workload) -> tuple[dict, dict]:
    """The end-to-end metrics, times scaled by ``host_scale``; the unscaled
    figures go into the extra record."""
    lat = loop.latencies_ms
    tail_ms, tail_pct = tail(lat)
    if workload.name == "keygen-cli":
        rss_kb = max(loop.maxrss_kb)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    raw = {
        "request_p50_ms": statistics.median(lat),
        "request_tail_ms": tail_ms,
        "requests_per_s": len(lat) / (sum(lat) / 1e3),
        "setup_s": setup["setup_s"],
    }
    k = host_scale(loop.probes_ms)
    metrics = {
        "request_p50_ms": (raw["request_p50_ms"] * k, "ms"),
        "request_tail_ms": (raw["request_tail_ms"] * k, "ms"),
        "requests_per_s": (raw["requests_per_s"] / k, "1/s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "setup_s": (raw["setup_s"] * k, "s"),
    }
    extra = {
        "tail_percentile": tail_pct,
        "samples": len(lat),
        "cpu_probe_ms": statistics.median(loop.probes_ms),
        "unscaled": raw,
    }
    return metrics, extra


def per_layer(tracer: Tracer, untraced_ms: list[float], traced_ms: list[float],
              setup: dict, cost: tuple[float, float], probes_ms: list[float]) -> dict:
    """Per-layer metrics from the spans, unscaled (as the host ran them)."""
    per_request, root_wall = self_times(tracer.records, tracer.names, *cost)
    n = len(root_wall)
    totals: dict[str, list] = {}
    for cells in per_request.values():
        for name, (calls, cpu) in cells.items():
            cell = totals.setdefault(name, [0, 0])
            cell[0] += calls
            cell[1] += cpu
    counters: dict[str, int] = {}
    for (_, key), value in tracer.counters.items():
        counters[key] = counters.get(key, 0) + value

    def ms(name):
        return totals.get(name, [0, 0])[1] / n / 1e6

    def us_per_call(name):
        calls, cpu = totals.get(name, [0, 0])
        return cpu / calls / 1e3 if calls else 0.0

    def calls(name):
        return totals.get(name, [0, 0])[0] / n

    def share(num, den):
        return counters.get(num, 0) / counters[den] if counters.get(den) else 0.0

    out = {
        "env.cpu_probe_ms": (statistics.median(probes_ms), "ms"),
        "env.interp_start_ms": (setup["interp_start_ms"], "ms"),
        "cli.import_ms": (setup["import_ms"], "ms"),
        "cli.main_ms": (ms("cli.main"), "ms"),
        "proc.spawn_ms": (ms("proc.spawn"), "ms"),
        "proc.exit_ms": (ms("proc.exit"), "ms"),
        "registry.load_builtin_ms": (ms("registry.load_builtin"), "ms"),
        "modmath.is_probable_prime_ms": (ms("modmath.is_probable_prime"), "ms"),
        "curve.validate_curve_ms": (ms("curve.validate_curve"), "ms"),
        "curve.scalar_mul_ms": (ms("curve.scalar_mul"), "ms"),
        "curve.scalar_mul_calls": (calls("curve.scalar_mul"), "count"),
        "de_opt.optimize_ms": (ms("de_opt.optimize"), "ms"),
        "de_opt.initialize_ms": (ms("de_opt.initialize"), "ms"),
        "de_opt.generation_ms": (ms("de_opt.generation"), "ms"),
        "de_opt.mutate_ms": (ms("de_opt.mutate"), "ms"),
        "de_opt.crossover_ms": (ms("de_opt.crossover"), "ms"),
        "de_opt.random_scalar_ms": (ms("de_opt.random_scalar"), "ms"),
        "de_opt.generations_run": (share("de_opt.generations_run", "de_opt.optimize_calls"), "count"),
        "de_opt.converged_at_init_share": (share("de_opt.converged_at_init", "de_opt.initialize_calls"), "share"),
        "kernels.crossover_fill_us": (us_per_call("kernels.crossover_fill"), "us"),
        "kernels.crossover_fill_calls": (calls("kernels.crossover_fill"), "count"),
        "rng.bernoulli_threshold_us": (us_per_call("rng.bernoulli_threshold"), "us"),
        "rng.substream_us": (us_per_call("rng.substream"), "us"),
        "bitcodec.shannon_entropy_us": (us_per_call("bitcodec.shannon_entropy"), "us"),
        "statbattery.run_battery_ms": (ms("statbattery.run_battery"), "ms"),
        "statbattery.autocorrelation_ms": (ms("statbattery.autocorrelation"), "ms"),
        "statbattery.compression_ratio_ms": (ms("statbattery.compression_ratio"), "ms"),
        "statbattery.runs_test_ms": (ms("statbattery.runs_test"), "ms"),
        "statbattery.run_battery_calls": (calls("statbattery.run_battery"), "count"),
        "report.dump_json_ms": (ms("report.dump_json"), "ms"),
        "report.write_benchmark_csv_ms": (ms("report.write_benchmark_csv"), "ms"),
    }
    for layer in LAYERS:
        out[f"layer.{layer}_ms"] = (
            sum((ms(name) for name in totals if name.split(".")[0] == layer), 0.0), "ms")
    attributed = sum((ms(name) for name in totals), 0.0)
    request_mean = sum(root_wall.values()) / n / 1e6
    spans = sum(c for name, (c, _) in totals.items() if not name.startswith("proc."))
    cost_ms = spans / n * sum(cost) / 1e6
    untraced_p50 = statistics.median(untraced_ms)
    traced_p50 = statistics.median(traced_ms)
    out.update({
        "trace.requests": (n, "count"),
        "trace.spans_per_request": (spans / n, "count"),
        "trace.request_mean_ms": (request_mean, "ms"),
        "trace.attributed_ms": (attributed, "ms"),
        "trace.span_cost_ms": (cost_ms, "ms"),
        "trace.unattributed_ms": (request_mean - attributed - cost_ms, "ms"),
        "trace.untraced_p50_ms": (untraced_p50, "ms"),
        "trace.traced_p50_ms": (traced_p50, "ms"),
        "trace.overhead_ms": (traced_p50 - untraced_p50, "ms"),
    })
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    schema_dir = root / "docs" / "schemas"
    if not (src / "ecscalar" / "__init__.py").is_file() or not schema_dir.is_dir():
        print("perfbench: run from the root of an ecscalar checkout "
              "(src/ecscalar and docs/schemas not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import ecscalar

    if Path(ecscalar.__file__).resolve().parent != (src / "ecscalar").resolve():
        print(f"perfbench: imported ecscalar from {ecscalar.__file__}, not {src}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    out_dir = BENCH_DIR / "out"
    tmp = out_dir / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, workload, root, out_dir, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def make_context(root: Path, tmp: Path) -> Context:
    return Context(
        root=root, tmp=tmp, env=_child_env(root / "src"),
        validators=verify.load_validators(root / "docs" / "schemas"),
        cli=importlib.import_module("ecscalar.cli"),
        registry=importlib.import_module("ecscalar.registry"),
        report=importlib.import_module("ecscalar.report"),
    )


def _run(args, workload, root, out_dir, tmp) -> int:
    env_block = environment()
    ctx = make_context(root, tmp)
    problems: list[str] = []
    setup_sampler = SetupSampler(ctx, workload.curves, args.seconds)
    for curve in workload.curves:
        ctx.registry.load_builtin(curve)
    backend = kernel_backend()
    gate = kernel_gate(ctx)
    if gate.startswith("FAILED"):
        problems.append(f"kernel gate {gate}")

    canary = Loop(workload, ctx, DEFAULT_SEED)
    canary.one(0)
    canary_digest = canary.digests[0] if canary.digests else None
    if canary.failures:
        problems.extend(f"canary {f}" for f in canary.failures)
    elif canary_digest != PINNED[workload.name]:
        problems.append(f"canary digest {canary_digest} != pinned {PINNED[workload.name]}")

    loop = Loop(workload, ctx, args.seed)
    tracer = None
    if args.trace:
        loop.until(args.seconds / 2, between=setup_sampler)
        untraced = list(loop.latencies_ms)
        cost = calibrate()
        tracer = Tracer()
        tracer.install()
        try:
            loop.until(args.seconds / 2, tracer=tracer, between=setup_sampler)
        finally:
            tracer.uninstall()
        traced = loop.latencies_ms[len(untraced):]
        setup = setup_sampler.result()
        metrics = per_layer(tracer, untraced, traced, setup, cost, loop.probes_ms)
        extra = {"untraced_samples": len(untraced), "traced_samples": len(traced),
                 "missing_trace_targets": tracer.missing,
                 "span_cost_ns": {"inside": cost[0], "outside": cost[1]}}
    else:
        loop.until(args.seconds, workload.min_requests, between=setup_sampler)
        setup = setup_sampler.result()
        metrics, extra = end_to_end(loop, setup, workload)
    env_block["loadavg_end"] = os.getloadavg()
    env_block["env.interp_start_ms"] = setup["interp_start_ms"]

    attempted = len(loop.latencies_ms)
    failed = len(loop.failures)
    correct = failed == 0 and not problems
    details = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env_block, "kernel_backend": backend,
        "kernel_gate": gate, "canary_digest": canary_digest, "problems": problems,
        "attempted": attempted, "failed": failed, "error_rate": failed / attempted,
        "failures": loop.failures[:20], "setup": setup, **extra,
        "latencies_ms": loop.latencies_ms, "probes_ms": loop.probes_ms,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = f"{workload.name}-trace{args.trace}"
    with open(out_dir / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    if tracer is not None:
        tracer.dump(str(out_dir / f"spans-{workload.name}"))

    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env_block.items()))
    print(f"kernel: backend={backend} gate={gate}")
    print(f"canary: sha256={canary_digest} "
          f"{'ok' if canary_digest == PINNED[workload.name] else 'MISMATCH'}")
    print(f"requests: attempted={attempted} failed={failed} "
          f"error_rate={failed / attempted:g} (1)")
    for key in ("tail_percentile", "samples", "untraced_samples", "traced_samples",
                "cpu_probe_ms"):
        if key in extra:
            print(f"{key}: {extra[key]:g}")
    for name, value in extra.get("unscaled", {}).items():
        print(f"unscaled {name}: {value:.6g}")
    for problem in problems + loop.failures[:5]:
        print(f"problem: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    if tracer is not None:
        m = {k: v for k, (v, _) in metrics.items()}
        print(f"accounting: traced mean {m['trace.request_mean_ms']:.1f} ms = attributed "
              f"{m['trace.attributed_ms']:.1f} + span cost {m['trace.span_cost_ms']:.1f} + "
              f"unattributed {m['trace.unattributed_ms']:.1f}; untraced p50 "
              f"{m['trace.untraced_p50_ms']:.1f} ms, overhead {m['trace.overhead_ms']:.1f} ms")
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
