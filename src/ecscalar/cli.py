"""Command-line front end.

Four subcommands:

* ``generate``  — run the optimizer and report k_opt, its entropy history,
                  and the public point Q = k_opt * G;
* ``audit``     — run the statistical battery on any hex scalar;
* ``benchmark`` — optimized vs. plain-random scalars, CSV rows plus a JSON
                  summary;
* ``enumerate`` — list every point of a small curve, with the Hasse verdict.

Exit codes: 0 success, 2 usage or parse error, 3 validation failure,
4 output I/O error.  All randomness flows from ``--seed``; without it a
seed is drawn from system entropy and echoed in the report manifest, so
any report can be reproduced from the manifest alone.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from typing import Any, NoReturn

from ecscalar import report as rpt
from ecscalar.bitcodec import to_bits
from ecscalar.curve import (
    FieldTooLargeError,
    enumerate_points,
    hasse_check,
    scalar_mul,
)
from ecscalar.de_opt import (
    DEConfig,
    best_scalar,
    optimize,
    parse_mutation_factor,
    random_scalar,
)
from ecscalar.modmath import format_hex, parse_hex
from ecscalar.registry import (
    CurveFileError,
    RegistryEntry,
    RegistryValidationError,
    UnknownCurveError,
    builtin_names,
    load_builtin,
    load_file,
    parse_kv_text,
)
from ecscalar.rng import substream, substream_seed
from ecscalar.statbattery import DEFAULT_LAGS, ordered_sum, run_battery

# Config-file keys and their flags are DEConfig's fields.
_CONFIG_KEYS = DEConfig.__slots__

# Largest accepted ``benchmark --trials``.  A trial on p256, the costliest
# built-in, takes about 0.5 ms, so the largest run takes about 5 s and
# writes about 1.1 MB of CSV.
MAX_TRIALS = 10_000

# Largest accepted ``audit --width``: the battery at 2**16 bits takes about
# 0.07 s and writes about 100 KB of JSON, most of it the echoed scalar.
MAX_AUDIT_WIDTH = 1 << 16

# Longest usage-error line, newline included: a hostile value (a
# 5000-digit --population-size, say) is cut short rather than echoed whole.
MAX_ERROR_BYTES = 200

_TRUE_WORDS = {"true", "yes", "on", "1"}
_FALSE_WORDS = {"false", "no", "off", "0"}


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in _TRUE_WORDS:
        return True
    if lowered in _FALSE_WORDS:
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _load_curve(spec: str) -> RegistryEntry:
    """Resolve --curve: a built-in name, or a path to a curve file."""
    if spec.lower() in builtin_names():
        return load_builtin(spec)
    if "/" in spec or spec.endswith(".curve") or spec.endswith(".txt"):
        return load_file(spec)
    raise UnknownCurveError(
        f"unknown curve {spec!r}; built-ins: {', '.join(builtin_names())} "
        "(or pass a path to a curve file)"
    )


def _build_config(args: argparse.Namespace) -> tuple[DEConfig, str]:
    """Merge defaults, config file, and flags (flags win).

    Returns the config and where the seed came from ("flag", "config-file"
    or "system-entropy").
    """
    file_values: dict[str, Any] = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read config file: {exc}") from None
        raw = parse_kv_text(text, source=args.config)
        unknown = [k for k in raw if k not in _CONFIG_KEYS]
        if unknown:
            raise ValueError(
                f"{args.config}: unknown config key(s): {', '.join(unknown)}"
            )
        coerce = {
            "population_size": int,
            "mutation_factor": parse_mutation_factor,
            "crossover_rate": float,
            "max_generations": int,
            "seed": int,
            "early_stop": _parse_bool,
        }
        for key, value_text in raw.items():
            try:
                file_values[key] = coerce[key](value_text)
            except ValueError as exc:
                raise ValueError(f"{args.config}: key {key!r}: {exc}") from None

    if getattr(args, "mutation_factor", None) is not None:
        try:  # here, not in argparse, so that a bad value is one stderr line
            args.mutation_factor = parse_mutation_factor(args.mutation_factor)
        except ValueError as exc:
            raise ValueError(f"--mutation-factor: {exc}") from None

    merged: dict[str, Any] = {}
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
        elif key in file_values:
            merged[key] = file_values[key]

    if "seed" in merged:
        seed_source = "flag" if getattr(args, "seed", None) is not None else "config-file"
    else:
        import secrets  # only seedless runs need it; kept off the import path

        merged["seed"] = secrets.randbits(64)
        seed_source = "system-entropy"
    return DEConfig(**merged), seed_source


def _write_json(doc: dict, out: str | None) -> None:
    if out is None:
        rpt.dump_json(doc, sys.stdout)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            rpt.dump_json(doc, fh)


def cmd_generate(args: argparse.Namespace) -> int:
    entry = _load_curve(args.curve)
    config, seed_source = _build_config(args)
    result = optimize(config, entry.params, width=args.width)
    q = scalar_mul(result.k_opt, entry.params.g, entry.params)
    doc = rpt.optresult_to_dict(result, q)
    doc["manifest"] = rpt.build_manifest(
        "generate",
        entry.params.name,
        config,
        {"width": result.width, "seed_source": seed_source},
    )
    _write_json(doc, args.out)
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    if args.width is None and args.curve is None:
        print("audit: need --width or --curve to fix the bit width", file=sys.stderr)
        return 2
    if args.width is not None and args.width > MAX_AUDIT_WIDTH:
        print(f"audit: --width must be at most {MAX_AUDIT_WIDTH}", file=sys.stderr)
        return 2
    curve_name = None
    if args.curve is not None:
        entry = _load_curve(args.curve)
        curve_name = entry.params.name
    width = args.width if args.width is not None else entry.params.n.bit_length()
    scalar = parse_hex(args.scalar)
    bits = to_bits(scalar, width)  # OverflowError -> exit 2 in main()
    battery = run_battery(bits)
    doc = rpt.battery_to_dict(battery)
    doc["manifest"] = rpt.build_manifest(
        "audit",
        curve_name,
        None,
        {"scalar": format_hex(scalar, width=width), "width": width},
    )
    _write_json(doc, args.out)
    return 0


def _benchmark_trial(
    entry: RegistryEntry, config: DEConfig, master_seed: int, trial: int
) -> list[dict]:
    """Two rows for one trial: a plain uniform draw and an optimized scalar.

    Substream slots: (master, trial, 0) seeds the optimizer run and
    (master, trial, 1) feeds the baseline draw.
    """
    params = entry.params
    width = params.n.bit_length()
    rows = []
    baseline = random_scalar(params, substream(master_seed, trial, 1))
    opt_config = config.replace(seed=substream_seed(master_seed, trial, 0))
    optimized = best_scalar(opt_config, params)
    for source, scalar in (("random", baseline), ("optimized", optimized)):
        battery = run_battery(to_bits(scalar, width))
        by_name = {t.test_name: t for t in battery.tests}
        rows.append(
            {
                "trial": trial,
                "source": source,
                "entropy": round(by_name["shannon_entropy"].statistic, 5),
                "ones": int(by_name["shannon_entropy"].auxiliary["ones"]),
                "zeros": int(by_name["shannon_entropy"].auxiliary["zeros"]),
                "monobit_p": rpt.sig6(by_name["monobit"].p_value),
                "chi_square_p": rpt.sig6(by_name["chi_square"].p_value),
                "runs_p": rpt.sig6(by_name["runs"].p_value),
                "compression_ratio": rpt.sig6(by_name["compression_ratio"].statistic),
                "_mean_abs_autocorrelation": by_name["autocorrelation"].statistic,
            }
        )
    return rows


def cmd_benchmark(args: argparse.Namespace) -> int:
    entry = _load_curve(args.curve)
    config, seed_source = _build_config(args)
    rows = [
        row
        for trial in range(args.trials)
        for row in _benchmark_trial(entry, config, config.seed, trial)
    ]

    summary_stats = {}
    for source in ("random", "optimized"):
        picked = [r for r in rows if r["source"] == source]
        summary_stats[source] = {
            "mean_entropy": rpt.sig6(
                ordered_sum(r["entropy"] for r in picked) / len(picked)
            ),
            "mean_abs_autocorrelation": rpt.sig6(
                ordered_sum(r["_mean_abs_autocorrelation"] for r in picked)
                / len(picked)
            ),
        }
    for r in rows:
        del r["_mean_abs_autocorrelation"]

    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        rpt.write_benchmark_csv(rows, fh)

    summary = {
        "trials": args.trials,
        "sources": summary_stats,
        "autocorrelation_lags": list(DEFAULT_LAGS),
        "csv": args.out,
        "manifest": rpt.build_manifest(
            "benchmark",
            entry.params.name,
            config,
            {"trials": args.trials, "seed_source": seed_source},
        ),
    }
    _write_json(summary, args.summary_out)
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    entry = _load_curve(args.curve)
    params = entry.params
    points = enumerate_points(params)  # FieldTooLargeError -> exit 3 in main()
    affine = [(pt.x, pt.y) for pt in points if not pt.is_infinity]
    if args.format == "csv":
        lines = ["x,y"] + [f"{x},{y}" for x, y in affine]
        text = "\n".join(lines) + "\n"
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        return 0
    doc = {
        "count": len(points),
        "affine_points": [[x, y] for x, y in affine],
        "includes_infinity": True,
        "hasse_ok": hasse_check(len(points), params.p),
        "manifest": rpt.build_manifest(
            "enumerate", params.name, None, {"p": params.p}
        ),
    }
    _write_json(doc, args.out)
    return 0


def _add_de_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=None, help="64-bit run seed")
    sub.add_argument(
        "--population-size", dest="population_size", type=int, default=None
    )
    sub.add_argument(
        "--mutation-factor",
        dest="mutation_factor",
        default=None,
        help="rational, e.g. 4/5 or 0.8",
    )
    sub.add_argument(
        "--crossover-rate", dest="crossover_rate", type=float, default=None
    )
    sub.add_argument(
        "--max-generations", dest="max_generations", type=int, default=None
    )
    sub.add_argument(
        "--no-early-stop",
        dest="early_stop",
        action="store_const",
        const=False,
        default=None,
        help="always run the full generation budget",
    )
    sub.add_argument("--config", default=None, help="key=value config file")
    sub.add_argument(
        "--workers",
        type=int,
        default=1,
        help="accepted for compatibility; changes neither output nor speed",
    )


def _error_line(message: str) -> str:
    """``ecscalar: <message>`` as one stderr line of at most
    ``MAX_ERROR_BYTES`` bytes, newline included: a long echoed value is cut
    short and marked with "..."."""
    line = f"ecscalar: {message}".replace("\n", " ")
    raw = line.encode("utf-8", "backslashreplace")
    if len(raw) < MAX_ERROR_BYTES:
        return line
    return raw[: MAX_ERROR_BYTES - 4].decode("utf-8", "ignore") + "..."


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one short stderr line."""

    def error(self, message: str) -> NoReturn:
        print(_error_line(message), file=sys.stderr)
        sys.exit(2)


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for the four subcommands."""
    parser = _Parser(
        prog="ecscalar",
        description="Generate and audit high-entropy elliptic-curve scalars.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("generate", help="search for a high-entropy scalar")
    gen.add_argument("--curve", required=True)
    gen.add_argument(
        "--width",
        type=int,
        default=None,
        help="bit width override, from bit_length(n) to 2*bit_length(n)",
    )
    gen.add_argument("--out", default=None, help="write the JSON report here")
    _add_de_flags(gen)

    aud = commands.add_parser("audit", help="run the randomness battery")
    aud.add_argument("scalar", help="hex scalar (0x prefix optional)")
    aud.add_argument("--curve", default=None)
    aud.add_argument("--width", type=int, default=None)
    aud.add_argument("--out", default=None)

    ben = commands.add_parser(
        "benchmark", help="optimized vs. random scalars, CSV + JSON summary"
    )
    ben.add_argument("--curve", required=True)
    ben.add_argument("--trials", type=int, default=100)
    ben.add_argument("--out", required=True, help="CSV output path")
    ben.add_argument(
        "--summary-out", dest="summary_out", default=None, help="JSON summary path"
    )
    _add_de_flags(ben)

    enu = commands.add_parser("enumerate", help="list all points of a small curve")
    enu.add_argument("--curve", required=True)
    enu.add_argument("--format", choices=("json", "csv"), default="json")
    enu.add_argument("--out", default=None)

    return parser


@lru_cache(maxsize=1)
def _shared_parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses: building one costs about a millisecond,
    and parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return 0 if exc.code in (0, None) else int(exc.code)

    if not 1 <= getattr(args, "trials", 1) <= MAX_TRIALS:
        print(f"benchmark: --trials must be in [1, {MAX_TRIALS}]", file=sys.stderr)
        return 2
    if getattr(args, "workers", 1) < 1:
        print(f"{args.command}: --workers must be >= 1", file=sys.stderr)
        return 2

    try:  # looked up per call, so a replaced handler is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except (RegistryValidationError, FieldTooLargeError) as exc:
        print(f"ecscalar: validation failure: {exc}", file=sys.stderr)
        return 3
    except (UnknownCurveError, CurveFileError, OverflowError, ValueError) as exc:
        print(_error_line(str(exc)), file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"ecscalar: cannot write output: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
