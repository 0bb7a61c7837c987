"""Checks on every request's output; a request that fails one is an error.

The checks use the benchmark's own arithmetic wherever the program's could be
the thing under test: the public point is recomputed with a right-to-left
affine double-and-add written here (the program's ``scalar_mul`` is
left-to-right), and entropies are recomputed from the bit counts.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import io
import json
import math
from pathlib import Path


class VerificationError(Exception):
    """An output broke one of the documented contracts."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise VerificationError(message)


def load_validators(schema_dir: Path) -> dict:
    """Draft-7 validators for every schema in docs/schemas, by file name."""
    from jsonschema import Draft7Validator
    from referencing import Registry, Resource
    from referencing.jsonschema import DRAFT7

    docs = {p.name: json.loads(p.read_text()) for p in schema_dir.glob("*.schema.json")}
    registry = Registry().with_resources(
        (name, Resource.from_contents(doc, default_specification=DRAFT7))
        for name, doc in docs.items()
    )
    return {name: Draft7Validator(doc, registry=registry) for name, doc in docs.items()}


def validate(validators: dict, schema: str, doc) -> None:
    errors = sorted(validators[schema].iter_errors(doc), key=str)
    check(not errors, f"{schema}: {errors[0].message if errors else ''}")


def ref_scalar_mul(k: int, gx: int, gy: int, a: int, p: int):
    """k*G by right-to-left affine double-and-add; None is the identity."""

    def add(P, Q):
        if P is None:
            return Q
        if Q is None:
            return P
        (x1, y1), (x2, y2) = P, Q
        if x1 == x2 and (y1 + y2) % p == 0:
            return None
        if P == Q:
            lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
        else:
            lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (lam * lam - x1 - x2) % p
        return x3, (lam * (x1 - x3) - y1) % p

    acc, addend = None, (gx, gy)
    while k:
        if k & 1:
            acc = add(acc, addend)
        addend = add(addend, addend)
        k >>= 1
    return acc


def binary_entropy(ones: int, width: int) -> float:
    h = 0.0
    for count in (ones, width - ones):
        if count:
            q = count / width
            h -= q * math.log2(q)
    return h


def check_process(rc: int, stdout: str, stderr: str) -> None:
    check(rc == 0, f"exit code {rc}: {stderr.strip()[-300:]}")
    check(stderr == "", f"stderr not empty: {stderr.strip()[-300:]}")
    check(stdout == "", "stdout not empty although --out was given")


def check_generate(doc: dict, validators: dict, curve, expect: dict) -> None:
    """A generate report: schema, k_opt range, counts, entropy, Q = k_opt*G.

    ``curve`` is the program's CurveParams; ``expect`` holds the curve name,
    seed and early-stop flag the request was sent with.
    """
    validate(validators, "generate.schema.json", doc)
    width = curve.n.bit_length()
    check(doc["width"] == width, f"width {doc['width']} != {width}")
    k = int(doc["k_opt"], 16)
    check(1 <= k <= curve.n - 1, "k_opt outside [1, n-1]")
    ones = bin(k).count("1")
    check(doc["ones"] == ones, f"ones {doc['ones']} != popcount {ones}")
    check(doc["zeros"] == width - ones, "zeros != width - ones")
    check(
        abs(doc["entropy"] - binary_entropy(ones, width)) <= 1e-5,
        "entropy does not match the bit counts",
    )
    check(len(doc["history"]) == doc["generations_run"] + 1, "history length")
    manifest = doc["manifest"]
    check(manifest["command"] == "generate", "manifest command")
    check(manifest["curve"] == expect["curve"], "manifest curve")
    check(manifest["config"]["seed"] == expect["seed"], "manifest seed")
    check(manifest["config"]["early_stop"] == expect["early_stop"], "manifest early_stop")
    if not expect["early_stop"]:
        check(
            doc["generations_run"] == manifest["config"]["max_generations"],
            "--no-early-stop run stopped before its generation budget",
        )
    q = ref_scalar_mul(k, curve.g.x, curve.g.y, curve.a, curve.p)
    check(q is not None, "k_opt*G is the identity")
    point = doc["public_point"]
    check(
        point["x"] is not None and point["y"] is not None
        and (int(point["x"], 16), int(point["y"], 16)) == q,
        "public point != k_opt*G",
    )


def check_benchmark(
    summary: dict, csv_text: str, validators: dict, columns, expect: dict
) -> None:
    """A benchmark summary plus its CSV: schema, header, 2*trials rows."""
    validate(validators, "benchmark-summary.schema.json", summary)
    trials = expect["trials"]
    check(summary["trials"] == trials, "summary trials")
    check(summary["csv"] == expect["csv"], "summary csv path")
    manifest = summary["manifest"]
    check(manifest["command"] == "benchmark", "manifest command")
    check(manifest["curve"] == expect["curve"], "manifest curve")
    check(manifest["config"]["seed"] == expect["seed"], "manifest seed")
    reader = csv.reader(io.StringIO(csv_text))
    header = next(reader, None)
    check(header == list(columns), f"CSV header {header}")
    rows = [dict(zip(header, r)) for r in reader]
    check(len(rows) == 2 * trials, f"CSV has {len(rows)} rows, want {2 * trials}")
    seen = sorted((int(r["trial"]), r["source"]) for r in rows)
    want = sorted((t, s) for t in range(trials) for s in ("random", "optimized"))
    check(seen == want, "CSV rows are not one random and one optimized per trial")
    width = expect["width"]
    sums = {"random": 0.0, "optimized": 0.0}
    for r in rows:
        ones, zeros = int(r["ones"]), int(r["zeros"])
        check(ones + zeros == width, "CSV ones + zeros != width")
        entropy = float(r["entropy"])
        check(abs(entropy - binary_entropy(ones, width)) <= 1e-5, "CSV entropy")
        sums[r["source"]] += entropy
    for source, total in sums.items():
        got = summary["sources"][source]["mean_entropy"]
        check(math.isclose(got, total / trials, rel_tol=1e-5), f"{source} mean_entropy")


def payload_digest(doc: dict, csv_bytes: bytes = b"") -> str:
    """SHA-256 of the deterministic payload: the report without its
    timestamp, with the CSV path reduced to its file name, followed by the
    CSV bytes."""
    doc = copy.deepcopy(doc)
    doc["manifest"].pop("timestamp", None)
    if "csv" in doc:
        doc["csv"] = Path(doc["csv"]).name
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob + b"\n" + csv_bytes).hexdigest()
