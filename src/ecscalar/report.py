"""Report assembly and serialization for the command-line front end.

Every command embeds a run manifest (command, curve, config echo, version,
UTC timestamp, input fingerprints) so a report can be reproduced from
itself.  Number formatting is pinned: entropies are rounded to 5 decimals,
every other statistic to 6 significant digits.  JSON is emitted with sorted
keys, so identical runs produce byte-identical documents apart from the
timestamp.  Schemas live in docs/schemas/.
"""

from __future__ import annotations

import json
import time
from typing import IO, Any

from ecscalar import __version__
from ecscalar.curve import Point
from ecscalar.de_opt import DEConfig, OptResult
from ecscalar.modmath import format_hex
from ecscalar.statbattery import BatteryReport

__all__ = [
    "CSV_COLUMNS",
    "battery_to_dict",
    "build_manifest",
    "dump_json",
    "optresult_to_dict",
    "sig6",
    "write_benchmark_csv",
]

CSV_COLUMNS = (
    "trial",
    "source",
    "entropy",
    "ones",
    "zeros",
    "monobit_p",
    "chi_square_p",
    "runs_p",
    "compression_ratio",
)


def sig6(x: float) -> float:
    """Round to 6 significant digits (report convention for statistics)."""
    return float(f"{x:.6g}")


def _entropy5(x: float) -> float:
    return round(x, 5)


def build_manifest(
    command: str,
    curve_name: str | None,
    config: DEConfig | None,
    inputs: dict[str, Any],
) -> dict[str, Any]:
    manifest: dict[str, Any] = {
        "command": command,
        "curve": curve_name,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime()),
        "inputs": inputs,
    }
    if config is not None:
        manifest["config"] = config.as_dict()
    return manifest


def battery_to_dict(report: BatteryReport) -> dict[str, Any]:
    tests = []
    for t in report.tests:
        fmt = _entropy5 if t.test_name == "shannon_entropy" else sig6
        entry: dict[str, Any] = {
            "name": t.test_name,
            "statistic": fmt(t.statistic),
            "p_value": None if t.p_value is None else sig6(t.p_value),
            "passed": t.passed,
            "auxiliary": {k: sig6(v) for k, v in sorted(t.auxiliary.items())},
        }
        tests.append(entry)
    return {
        "scalar": report.scalar_hex,
        "bits": format(int(report.scalar_hex, 16), f"0{report.width}b"),
        "width": report.width,
        "tests": tests,
        "overall_pass": report.overall_pass,
    }


def optresult_to_dict(result: OptResult, q: Point) -> dict[str, Any]:
    return {
        "k_opt": format_hex(result.k_opt, width=result.width),
        "width": result.width,
        "entropy": _entropy5(result.best_entropy),
        "ones": result.k_opt.bit_count(),
        "zeros": result.width - result.k_opt.bit_count(),
        "generations_run": result.generations_run,
        "history": [
            {
                "generation": h.generation,
                "best_entropy": _entropy5(h.best_entropy),
                "mean_entropy": _entropy5(h.mean_entropy),
            }
            for h in result.history
        ],
        "public_point": {
            "x": format_hex(q.x) if not q.is_infinity else None,
            "y": format_hex(q.y) if not q.is_infinity else None,
        },
    }


def dump_json(obj: Any, stream: IO[str]) -> None:
    json.dump(obj, stream, indent=2, sort_keys=True)
    stream.write("\n")


def write_benchmark_csv(rows: list[dict[str, Any]], stream: IO[str]) -> None:
    import csv  # only benchmark writes CSV; kept off the other commands' import

    writer = csv.DictWriter(stream, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
