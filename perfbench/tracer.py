"""In-memory span tracer that wraps ecscalar's public functions from outside.

Nothing under ``src/`` changes: ``Tracer.install`` replaces each target
function with a recording wrapper in every loaded ``ecscalar`` module that
binds it (``from x import f`` copies included), and ``uninstall`` puts the
originals back.  A target the program no longer has is skipped and listed in
``Tracer.missing``, so the tracer keeps working while the code under it
changes.

A span record is nine signed 64-bit integers kept in one flat array (see
``FIELDS``): span id, parent id, name id, request id, thread id, wall
start/end (``perf_counter_ns``, CLOCK_MONOTONIC, comparable across
processes) and thread CPU start/end (``thread_time_ns``).  A span's busy
self time is its CPU time minus that of its children on the same thread.
CPU time rather than wall time is used because the ``--workers`` fan-out
runs on threads under the GIL: a wall-clock span in one thread also covers
the time the other thread held the lock, so wall self times would add up to
more than the request took.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
from array import array
from collections import defaultdict
from contextlib import contextmanager
from threading import get_ident
from time import perf_counter_ns, thread_time_ns

FIELDS = ("span", "parent", "name", "request", "thread", "t0", "t1", "c0", "c1")
_W = len(FIELDS)

# Thread id given to spans measured by the parent around a child process
# (their CPU fields hold wall time: the parent only sees the child waiting),
# and to the spans recorded inside that child.
PROC_THREAD = -2
CHILD_THREAD = -3

# (module, attribute, span name).  The span name's prefix is the layer.
TARGETS = (
    ("ecscalar.cli", "main", "cli.main"),
    ("ecscalar.registry", "load_builtin", "registry.load_builtin"),
    ("ecscalar.modmath", "is_probable_prime", "modmath.is_probable_prime"),
    ("ecscalar.curve", "validate_curve", "curve.validate_curve"),
    ("ecscalar.curve", "scalar_mul", "curve.scalar_mul"),
    ("ecscalar.de_opt", "optimize", "de_opt.optimize"),
    ("ecscalar.de_opt", "initialize", "de_opt.initialize"),
    ("ecscalar.de_opt", "step_generation", "de_opt.generation"),
    ("ecscalar.de_opt", "mutate", "de_opt.mutate"),
    ("ecscalar.de_opt", "crossover", "de_opt.crossover"),
    ("ecscalar.de_opt", "random_scalar", "de_opt.random_scalar"),
    ("ecscalar.kernels", "crossover_fill", "kernels.crossover_fill"),
    ("ecscalar.rng", "bernoulli_threshold", "rng.bernoulli_threshold"),
    ("ecscalar.rng", "substream", "rng.substream"),
    ("ecscalar.bitcodec", "shannon_entropy", "bitcodec.shannon_entropy"),
    ("ecscalar.statbattery", "run_battery", "statbattery.run_battery"),
    ("ecscalar.statbattery", "monobit_test", "statbattery.monobit_test"),
    ("ecscalar.statbattery", "chi_square_bits", "statbattery.chi_square_bits"),
    ("ecscalar.statbattery", "runs_test", "statbattery.runs_test"),
    ("ecscalar.statbattery", "autocorrelation", "statbattery.autocorrelation"),
    ("ecscalar.statbattery", "compression_ratio", "statbattery.compression_ratio"),
    ("ecscalar.report", "optresult_to_dict", "report.optresult_to_dict"),
    ("ecscalar.report", "build_manifest", "report.build_manifest"),
    ("ecscalar.report", "dump_json", "report.dump_json"),
    ("ecscalar.report", "write_benchmark_csv", "report.write_benchmark_csv"),
)


class Tracer:
    """Records spans and per-request counters for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.records = array("q")
        self.counters: dict[tuple[int, str], int] = defaultdict(int)
        self.missing: list[str] = []
        self.request = -1
        self.root = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, name: str, value: int = 1) -> None:
        with self._lock:
            self.counters[(self.request, name)] += value

    def add_record(self, *fields: int) -> None:
        self.records.extend(fields)

    @contextmanager
    def span(self, name: str):
        """Span around a block on the current thread; yields its id."""
        nid = self.name_id(name)
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self.root
        sid = next(self._ids)
        stack.append(sid)
        c0 = thread_time_ns()
        t0 = perf_counter_ns()
        try:
            yield sid
        finally:
            t1 = perf_counter_ns()
            c1 = thread_time_ns()
            stack.pop()
            # One extend per record keeps records whole across threads.
            self.records.extend(
                (sid, parent, nid, self.request, get_ident(), t0, t1, c0, c1)
            )

    @contextmanager
    def request_span(self, request: int):
        """Root span of one request; pool-thread spans hang under it."""
        self.request = request
        with self.span("request") as sid:
            self.root = sid
            try:
                yield sid
            finally:
                self.root = -1

    def wrap(self, name: str, fn, hook=None):
        nid = self.name_id(name)
        local = self._local
        records = self.records
        ids = self._ids
        tracer = self

        # The body repeats span() inline: it runs on every traced call, and a
        # context manager would add its own cost to every span.
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else tracer.root
            sid = next(ids)
            stack.append(sid)
            c0 = thread_time_ns()
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                c1 = thread_time_ns()
                stack.pop()
                records.extend(
                    (sid, parent, nid, tracer.request, get_ident(), t0, t1, c0, c1)
                )
            if hook is not None:
                hook(tracer, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every target in every loaded ecscalar module that binds it."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "ecscalar" or key.startswith("ecscalar."))
        ]
        for module_name, attr, span_name in TARGETS:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None) if module is not None else None
            if original is None:
                self.missing.append(span_name)
                continue
            wrapper = self.wrap(span_name, original, _HOOKS.get(span_name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, original))

    def uninstall(self) -> None:
        for m, key, original in reversed(self._patched):
            setattr(m, key, original)
        self._patched.clear()

    def dump(self, path_prefix: str, extra: dict | None = None) -> None:
        """Write the records (native int64) and a JSON header beside them."""
        with open(path_prefix + ".bin", "wb") as fh:
            self.records.tofile(fh)
        header = {
            "fields": FIELDS,
            "dtype": "int64",
            "byteorder": sys.byteorder,
            "names": self.names,
            "counters": [[r, k, v] for (r, k), v in sorted(self.counters.items())],
            "missing_targets": self.missing,
        }
        if extra:
            header.update(extra)
        with open(path_prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=1)


def _after_optimize(tracer: Tracer, result) -> None:
    tracer.count("de_opt.optimize_calls")
    tracer.count("de_opt.generations_run", result.generations_run)


def _after_initialize(tracer: Tracer, population) -> None:
    # "Converged at init": the initial population already holds a scalar of
    # the lowest reachable imbalance, so an early-stopping run ends here.
    tracer.count("de_opt.initialize_calls")
    tracer.count(
        "de_opt.converged_at_init",
        int(any(
            abs(2 * ind.scalar.bit_count() - ind.width) == ind.width % 2
            for ind in population
        )),
    )


_HOOKS = {
    "de_opt.optimize": _after_optimize,
    "de_opt.initialize": _after_initialize,
}


def iter_records(records: array):
    for i in range(0, len(records), _W):
        yield records[i:i + _W]


def _noop() -> None:
    return None


def calibrate(calls: int = 20000) -> tuple[float, float]:
    """CPU cost of tracing one call, in ns: (inside the span, outside it).

    The inside part is what a span's own clocks see of the wrapper around a
    no-op; the outside part is what the caller's span pays per traced child
    on top of the plain call.  ``self_times`` subtracts both, so a parent's
    self time does not grow with the number of children it has.
    """
    probe = Tracer()
    leaf = probe.wrap("leaf", _noop)

    def body():
        for _ in range(calls):
            leaf()

    probe.wrap("parent", body)()
    c0 = thread_time_ns()
    for _ in range(calls):
        _noop()
    bare = thread_time_ns() - c0
    cells, _ = self_times(probe.records, probe.names)
    inner = cells[-1]["leaf"][1] / calls
    outer = (cells[-1]["parent"][1] - bare) / calls
    return inner, outer


def self_times(records: array, names: list[str], inner_ns: float = 0.0,
               outer_ns: float = 0.0):
    """Per-request self times: {request: {name: [calls, self_cpu_ns]}} and
    {request: root wall ns}.

    A span's self time is its CPU time minus that of its children on the
    same thread, less the calibrated tracing cost (see ``calibrate``); spans
    whose parent runs on another thread (pool workers, the child process)
    are not subtracted from it.
    """
    spans = {}
    child_cpu = defaultdict(float)
    for sid, parent, nid, req, thread, t0, t1, c0, c1 in iter_records(records):
        spans[sid] = (parent, nid, req, thread, t1 - t0, c1 - c0)
    for parent, nid, req, thread, wall, cpu in spans.values():
        if parent in spans and spans[parent][3] == thread:
            child_cpu[parent] += cpu + inner_ns + outer_ns
    per_request: dict[int, dict[str, list]] = defaultdict(
        lambda: defaultdict(lambda: [0, 0.0])
    )
    root_wall: dict[int, int] = {}
    for sid, (parent, nid, req, thread, wall, cpu) in spans.items():
        name = names[nid]
        if name == "request":
            root_wall[req] = wall
            continue
        own = cpu - child_cpu[sid]
        if thread != PROC_THREAD:
            own -= inner_ns
        cell = per_request[req][name]
        cell[0] += 1
        cell[1] += own
    return per_request, root_wall
