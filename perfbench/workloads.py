"""The three workloads: closed loops with one client.

Each request's inputs come from ``request_seed``, a SHA-256 counter keyed by
the workload name, the workload seed and the request index.  It does not use
``ecscalar.rng``, so a change to the program's generator cannot change which
requests are sent.

``run`` does only the timed work and returns the raw outputs; ``verify``
checks them afterwards, outside the timed window.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

import verify
from tracer import CHILD_THREAD, FIELDS, PROC_THREAD

CURVE_ROTATION = ("p192", "p224", "p256")
AUDIT_TRIALS = 50
AUDIT_WORKERS = 2
# Enough requests for the tail percentile to lie above the median.
MIN_REQUESTS = 21


def request_seed(workload: str, seed: int, index: int) -> int:
    """64-bit program seed for request ``index`` of a workload run."""
    digest = hashlib.sha256(f"perfbench/{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class Context:
    """What a workload needs from the runner: paths, the child environment,
    the schema validators and the program modules loaded in this process."""

    root: Path
    tmp: Path
    env: dict
    validators: dict
    cli: object
    registry: object
    report: object


@dataclass
class Raw:
    """The outputs of one request, as run() saw them."""

    latency_ns: int
    rc: int
    stdout: str
    stderr: str
    expect: dict
    files: dict = field(default_factory=dict)
    maxrss_kb: int = 0
    t_spawn: int = 0
    t_reaped: int = 0


def _call_main(ctx: Context, argv: list[str], expect: dict, files: dict) -> Raw:
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter_ns()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = ctx.cli.main(argv)  # looked up per call, so tracing applies
    except Exception:  # a traceback is a failed request, not a failed run
        rc = -1
        err.write(traceback.format_exc())
    t1 = perf_counter_ns()
    return Raw(t1 - t0, rc, out.getvalue(), err.getvalue(), expect, files)


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8") if path.exists() else ""


class KeygenCli:
    """A fresh ``python -m ecscalar.cli generate --curve p256`` per request."""

    name = "keygen-cli"
    curves = ("p256",)
    cycle = 1
    min_requests = MIN_REQUESTS

    def run(self, ctx: Context, seed: int, index: int, traced: bool = False) -> Raw:
        s = request_seed(self.name, seed, index)
        out = ctx.tmp / "keygen.json"
        out.unlink(missing_ok=True)
        args = ["generate", "--curve", "p256", "--seed", str(s), "--out", str(out)]
        if traced:
            prefix = str(ctx.tmp / "child-spans")
            cmd = [sys.executable, str(Path(__file__).with_name("child.py")),
                   "trace", prefix, *args]
        else:
            cmd = [sys.executable, "-m", "ecscalar.cli", *args]
        so_path, se_path = ctx.tmp / "stdout", ctx.tmp / "stderr"
        with open(so_path, "wb") as so, open(se_path, "wb") as se:
            t0 = perf_counter_ns()
            proc = subprocess.Popen(cmd, stdout=so, stderr=se, env=ctx.env, cwd=ctx.root)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            t1 = perf_counter_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        expect = {"curve": "p256", "seed": s, "early_stop": True}
        raw = Raw(t1 - t0, proc.returncode, _read(so_path), _read(se_path), expect,
                  {"report": out}, usage.ru_maxrss, t0, t1)
        return raw

    def verify(self, ctx: Context, raw: Raw) -> str:
        verify.check_process(raw.rc, raw.stdout, raw.stderr)
        doc = json.loads(raw.files["report"].read_text(encoding="utf-8"))
        curve = ctx.registry.load_builtin(raw.expect["curve"]).params
        verify.check_generate(doc, ctx.validators, curve, raw.expect)
        return verify.payload_digest(doc)

    def merge_trace(self, ctx: Context, tracer, root: int, request: int, raw: Raw) -> None:
        """Fold the child's spans under the request's root span, with the
        parent-side waits before the child's first line and after its last."""
        from array import array

        prefix = ctx.tmp / "child-spans"
        header = json.loads(prefix.with_suffix(".json").read_text())
        records = array("q")
        records.frombytes(prefix.with_suffix(".bin").read_bytes())
        width = len(FIELDS)
        new_id = {}
        for i in range(0, len(records), width):
            new_id[records[i]] = next(tracer._ids)
        for i in range(0, len(records), width):
            sid, parent, nid, _, _, t0, t1, c0, c1 = records[i:i + width]
            tracer.add_record(
                new_id[sid], new_id.get(parent, root),
                tracer.name_id(header["names"][nid]), request, CHILD_THREAD,
                t0, t1, c0, c1,
            )
        for name, t0, t1 in (
            ("proc.spawn", raw.t_spawn, header["t_main"]),
            ("proc.exit", header["t_end"], raw.t_reaped),
        ):
            tracer.add_record(next(tracer._ids), root, tracer.name_id(name), request,
                              PROC_THREAD, t0, t1, t0, t1)
        for _, key, value in header["counters"]:
            tracer.counters[(request, key)] += value
        tracer.missing = sorted(set(tracer.missing) | set(header["missing_targets"]))


class SearchFull:
    """In-process full-budget search, rotating p192 -> p224 -> p256."""

    name = "search-full"
    curves = CURVE_ROTATION
    cycle = len(CURVE_ROTATION)
    # The curves differ in cost (width 192/224/256), so request times form
    # three bands.  Thirteen requests per curve keep the tail, which has ten
    # samples beyond it, inside the p256 band instead of on its lower edge.
    min_requests = 13 * len(CURVE_ROTATION)

    def run(self, ctx: Context, seed: int, index: int, traced: bool = False) -> Raw:
        s = request_seed(self.name, seed, index)
        curve = CURVE_ROTATION[index % len(CURVE_ROTATION)]
        out = ctx.tmp / "search.json"
        out.unlink(missing_ok=True)
        argv = ["generate", "--curve", curve, "--no-early-stop", "--seed", str(s),
                "--out", str(out)]
        expect = {"curve": curve, "seed": s, "early_stop": False}
        return _call_main(ctx, argv, expect, {"report": out})

    verify = KeygenCli.verify


class AuditTrials:
    """In-process ``benchmark --trials 50 --workers 2`` on p256."""

    name = "audit-trials"
    curves = ("p256",)
    cycle = 1
    min_requests = MIN_REQUESTS

    def run(self, ctx: Context, seed: int, index: int, traced: bool = False) -> Raw:
        s = request_seed(self.name, seed, index)
        csv_path, summary = ctx.tmp / "audit.csv", ctx.tmp / "audit.json"
        csv_path.unlink(missing_ok=True)
        summary.unlink(missing_ok=True)
        argv = ["benchmark", "--curve", "p256", "--trials", str(AUDIT_TRIALS),
                "--workers", str(AUDIT_WORKERS), "--seed", str(s),
                "--out", str(csv_path), "--summary-out", str(summary)]
        expect = {"curve": "p256", "seed": s, "trials": AUDIT_TRIALS,
                  "csv": str(csv_path), "width": 256}
        return _call_main(ctx, argv, expect, {"csv": csv_path, "summary": summary})

    def verify(self, ctx: Context, raw: Raw) -> str:
        verify.check_process(raw.rc, raw.stdout, raw.stderr)
        summary = json.loads(raw.files["summary"].read_text(encoding="utf-8"))
        csv_bytes = raw.files["csv"].read_bytes()
        verify.check_benchmark(summary, csv_bytes.decode("utf-8"), ctx.validators,
                               ctx.report.CSV_COLUMNS, raw.expect)
        return verify.payload_digest(summary, csv_bytes)


WORKLOADS = {w.name: w for w in (KeygenCli(), SearchFull(), AuditTrials())}
