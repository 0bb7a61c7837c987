"""Command-line front end: commands, exit codes, schemas, determinism."""

import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from jsonschema import Draft7Validator
from referencing import Registry, Resource
from referencing.jsonschema import DRAFT7

from ecscalar import cli, de_opt
from ecscalar.cli import MAX_AUDIT_WIDTH, MAX_ERROR_BYTES, MAX_TRIALS, main
from ecscalar.de_opt import MAX_GENERATIONS, MAX_POPULATION_SIZE, DEConfig
from ecscalar.registry import load_builtin
from ecscalar.rng import substream_seed

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def _validator(name):
    store = [
        (
            path.name,
            Resource.from_contents(
                json.loads(path.read_text()), default_specification=DRAFT7
            ),
        )
        for path in SCHEMA_DIR.glob("*.schema.json")
    ]
    registry = Registry().with_resources(store)
    schema = json.loads((SCHEMA_DIR / name).read_text())
    return Draft7Validator(schema, registry=registry)


_TOY29_PAIRS = {
    "name": "toy29", "p": "0x1d", "a": "0x4", "b": "0x14",
    "gx": "0x0", "gy": "0x7", "n": "0x25",
}
_FUZZ_VALUES = st.one_of(
    st.integers(0, 0x40).map(hex),
    st.integers(0, 0x40).map(lambda v: format(v, "X")),
    st.text("0123456789abcdefxg# \t=", max_size=6),
)


@st.composite
def _curve_texts(draw):
    """Curve-file text: toy29 with a few keys changed or dropped, or
    arbitrary key/value lines, with small hex values either way."""
    if draw(st.integers(0, 3)):
        pairs = dict(_TOY29_PAIRS)
        for key in draw(
            st.lists(st.sampled_from(sorted(pairs)), max_size=3, unique=True)
        ):
            if draw(st.integers(0, 3)):
                pairs[key] = draw(_FUZZ_VALUES)
            else:
                del pairs[key]
        lines = [f"{k} = {v}" for k, v in pairs.items()]
    else:
        keys = st.sampled_from(sorted(_TOY29_PAIRS) + ["q", "G", "1x"])
        line = st.one_of(
            st.tuples(keys, _FUZZ_VALUES).map(" = ".join),
            st.text(max_size=12),
        )
        lines = draw(st.lists(line, max_size=9))
    return "\n".join(lines) + "\n"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, *argv):
    code, out, err = _run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestGenerate:
    def test_p192_report(self, capsys):
        doc = _run_json(capsys, "generate", "--curve", "p192", "--seed", "42")
        _validator("generate.schema.json").validate(doc)
        assert doc["entropy"] == 1.0
        assert (doc["ones"], doc["zeros"]) == (96, 96)
        assert doc["width"] == 192
        assert doc["manifest"]["config"]["seed"] == 42
        assert doc["manifest"]["config"]["mutation_factor"] == "4/5"
        assert len(doc["history"]) == doc["generations_run"] + 1

    def test_toy29_public_point_is_on_the_curve(self, capsys, toy29):
        from ecscalar.curve import Point, is_on_curve, enumerate_points

        doc = _run_json(capsys, "generate", "--curve", "toy29", "--seed", "1")
        k_opt = int(doc["k_opt"], 16)
        assert 1 <= k_opt <= 36
        q = Point(int(doc["public_point"]["x"], 16),
                  int(doc["public_point"]["y"], 16))
        assert is_on_curve(q, toy29)
        assert q in enumerate_points(toy29)

    def test_unknown_curve_exits_2(self, capsys):
        code, out, err = _run(capsys, "generate", "--curve", "p999")
        assert code == 2
        assert out == ""
        assert "unknown curve" in err

    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, stdout, _ = _run(
            capsys, "generate", "--curve", "toy29", "--seed", "3",
            "--out", str(out),
        )
        assert code == 0 and stdout == ""
        json.loads(out.read_text())

    def test_missing_seed_draws_one_and_echoes_it(self, capsys):
        doc = _run_json(capsys, "generate", "--curve", "toy29")
        assert doc["manifest"]["inputs"]["seed_source"] == "system-entropy"
        assert 0 <= doc["manifest"]["config"]["seed"] < 1 << 64

    def test_width_override(self, capsys):
        doc = _run_json(
            capsys, "generate", "--curve", "toy29", "--seed", "5",
            "--width", "8",
        )
        assert doc["width"] == 8
        assert len(doc["k_opt"]) == 4  # 0x + 2 hex digits

    def test_width_beyond_the_range_stops_at_its_floor(self, capsys):
        # Five ones is the most any scalar below 37 has, so at width 12,
        # toy29's cap, the floor is 2 and the run stops as soon as it holds
        # one with five ones.
        doc = _run_json(
            capsys, "generate", "--curve", "toy29", "--width", "12",
            "--seed", "1",
        )
        assert doc["generations_run"] == 0
        assert doc["ones"] == 5

    @pytest.mark.parametrize("curve,width", [("toy29", 13), ("p256", 513)])
    def test_width_above_twice_the_order_bits_exits_2(self, capsys, curve, width):
        code, out, err = _run(
            capsys, "generate", "--curve", curve, "--width", str(width),
            "--seed", "1",
        )
        assert code == 2
        assert out == ""
        assert f"width {width} must lie in" in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("width", [6, 12])
    def test_width_at_either_end_of_the_range_is_accepted(self, capsys, width):
        doc = _run_json(
            capsys, "generate", "--curve", "toy29", "--width", str(width),
            "--seed", "1",
        )
        assert doc["width"] == width


class TestDeterminism:
    @staticmethod
    def _strip(doc):
        doc["manifest"].pop("timestamp")
        return doc

    def test_identical_flags_identical_report(self, capsys):
        a = self._strip(_run_json(
            capsys, "generate", "--curve", "p256", "--seed", "9"))
        b = self._strip(_run_json(
            capsys, "generate", "--curve", "p256", "--seed", "9"))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_workers_do_not_change_the_report(self, capsys):
        base = self._strip(_run_json(
            capsys, "generate", "--curve", "p256", "--seed", "9"))
        threaded = self._strip(_run_json(
            capsys, "generate", "--curve", "p256", "--seed", "9",
            "--workers", "4"))
        assert json.dumps(base, sort_keys=True) == json.dumps(
            threaded, sort_keys=True)

    def test_workers_do_not_change_a_full_budget_report(self, capsys):
        # Seed 9 above stops at generation 0; this run makes five DE
        # generations go through the worker pool.
        argv = ("generate", "--curve", "p192", "--seed", "9",
                "--no-early-stop", "--max-generations", "5")
        base = self._strip(_run_json(capsys, *argv, "--workers", "1"))
        threaded = self._strip(_run_json(capsys, *argv, "--workers", "4"))
        assert base["generations_run"] == 5
        assert json.dumps(base, sort_keys=True) == json.dumps(
            threaded, sort_keys=True)


class TestGoldenPins:
    """Multi-generation outputs pinned by digest: any change to the DE, the
    rng, the battery or the report writers shows up here."""

    def test_p256_full_budget_report(self, capsys):
        doc = _run_json(
            capsys, "generate", "--curve", "p256", "--seed", "2024",
            "--no-early-stop", "--max-generations", "30")
        assert doc["k_opt"] == (
            "0x62d7f17bc70021aa3dcb090f65f96319a6e6c6d6573f08e63a0711d6c86154ed")
        assert doc["generations_run"] == 30
        doc["manifest"].pop("timestamp")
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode())
        assert digest.hexdigest() == (
            "1b568ee9b8018f26fabbc52cc84f53971a38dfa342f7df482ba84854f5a143ad")

    @pytest.mark.parametrize(
        "curve,trials,seed,flags,entered,csv_digest,summary_digest",
        [
            (
                "toy29", 100, 7, ("--population-size", "4"), 26,
                "5c7564a3cbe5bec3af23eac14a71aaf683bacfcf8ff27ea203bdf987fb5f81af",
                "adf9250ce6d1e302d954221ebb1bccac5e0f4fdfefff51529693ee99e0439798",
            ),
            (
                "toy29", 100, 7, ("--population-size", "4", "--no-early-stop"),
                100,
                "8232913d3c99245a0a597fc8f5d6a66f68455003fd11453809ce15f1c83c93c1",
                "5e88024a9876603eaa407d307a55cd3bbcc466a888a27ff29ca4599369136b12",
            ),
            (
                "p256", 50, 3, (), 4,
                "74e45c9c92378dc6b276b8b8edc722c83c229aa9a1fedd193c736762987ffd39",
                "0153b12ece923874106e9995d6f650791e95f45cbae76ddba9fe47aeb6520812",
            ),
        ],
        ids=["toy29-early-stop", "toy29-full-budget", "p256"],
    )
    def test_benchmark_with_trials_that_enter_generations(
        self, capsys, tmp_path, curve, trials, seed, flags, entered,
        csv_digest, summary_digest,
    ):
        csv_path = tmp_path / "bench.csv"
        doc = _run_json(
            capsys, "benchmark", "--curve", curve, "--trials", str(trials),
            "--seed", str(seed), "--out", str(csv_path),
            *flags)
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == csv_digest
        doc["manifest"].pop("timestamp")
        doc.pop("csv")
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode())
        assert digest.hexdigest() == summary_digest
        # The pin covers the DE itself only if some trial runs a generation.
        config = DEConfig(**doc["manifest"]["config"])
        params = load_builtin(curve).params
        generations = [
            de_opt.optimize(
                config.replace(seed=substream_seed(seed, trial, 0)), params
            ).generations_run
            for trial in range(trials)
        ]
        assert sum(g > 0 for g in generations) == entered

    def test_p192_benchmark_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "bench.csv"
        _run_json(
            capsys, "benchmark", "--curve", "p192", "--trials", "6",
            "--seed", "4", "--out", str(csv_path))
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == (
            "ecf118e05699a86f9ed3de73e6de1c7aa2e70df725fae4fed5dc280761e6349b")


class TestAudit:
    def test_example_width_5(self, capsys):
        doc = _run_json(capsys, "audit", "--width", "5", "0x13")
        _validator("audit.schema.json").validate(doc)
        entropy = doc["tests"][0]
        assert entropy["name"] == "shannon_entropy"
        assert entropy["statistic"] == pytest.approx(0.97095, abs=1e-5)
        assert doc["scalar"] == "0x13"
        assert doc["bits"] == "10011"

    def test_tabulated_p192_scalar(self, capsys):
        doc = _run_json(
            capsys, "audit", "--curve", "p192",
            "0x9c6786c6212db513501dd99840e73bb1a2168c652541eb1b",
        )
        entropy = doc["tests"][0]
        assert entropy["statistic"] == pytest.approx(0.9949, abs=5e-4)
        assert entropy["auxiliary"]["ones"] == 88
        assert entropy["auxiliary"]["zeros"] == 104

    def test_exit_zero_even_when_battery_fails(self, capsys):
        doc = _run_json(capsys, "audit", "--width", "128", "0x0")
        assert doc["overall_pass"] is False

    @pytest.mark.parametrize(
        "argv",
        [
            ("0x0", "--curve", "toy29"),
            ("0xff", "--width", "8"),
            ("0x0", "--width", "15"),
        ],
    )
    def test_short_constant_scalar_fails_without_a_crash(self, capsys, argv):
        code, out, err = _run(capsys, "audit", *argv)
        assert code == 0, err
        assert err == ""
        doc = json.loads(out)
        _validator("audit.schema.json").validate(doc)
        assert doc["overall_pass"] is False
        runs = [t for t in doc["tests"] if t["name"] == "runs"][0]
        assert runs["p_value"] == 0.0
        assert runs["auxiliary"]["prerequisite_met"] == 0.0

    def test_golden_p256_autocorrelation(self, capsys):
        # Float sums run left to right on every Python version; compensated
        # sum() (Python 3.12+) would print 0.0457813 for this scalar.
        doc = _run_json(
            capsys, "audit", "--curve", "p256",
            "0x39e0f596912f884f15dec22391e86e438ccbd3314193bf911224f124d8a04d57",
        )
        autocorrelation = [
            t for t in doc["tests"] if t["name"] == "autocorrelation"
        ][0]
        assert autocorrelation["statistic"] == 0.0457812

    def test_needs_width_or_curve(self, capsys):
        code, _, err = _run(capsys, "audit", "0x13")
        assert code == 2 and "--width or --curve" in err

    def test_bad_hex_exits_2(self, capsys):
        code, _, err = _run(capsys, "audit", "--width", "8", "0xzz")
        assert code == 2 and "hex" in err

    def test_scalar_too_wide_exits_2(self, capsys):
        code, _, _ = _run(capsys, "audit", "--width", "4", "0x1f")
        assert code == 2

    def test_scalar_far_too_wide_is_one_short_line(self, capsys):
        # The error names the bit length, not the value (4817 decimal digits).
        code, out, err = _run(capsys, "audit", "--width", "8", "0x" + "f" * 4000)
        assert code == 2 and out == ""
        assert err == "ecscalar: 16000-bit value does not fit in 8 bits\n"

    def test_bad_hex_digit_is_one_short_line(self, capsys):
        # The error names the digit and its offset, not the 4000 digits.
        start = time.perf_counter()
        code, out, err = _run(capsys, "audit", "--width", "8", "0x" + "f" * 4000 + "z")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == "ecscalar: invalid hex digit 'z' at offset 4002\n"
        assert len(err.encode()) < 200

    def test_width_above_cap_exits_2(self, capsys):
        code, out, err = _run(
            capsys, "audit", "--width", str(MAX_AUDIT_WIDTH + 1), "0x1")
        assert code == 2 and out == ""
        assert err == f"audit: --width must be at most {MAX_AUDIT_WIDTH}\n"

    def test_width_at_cap_is_accepted(self, capsys):
        doc = _run_json(capsys, "audit", "--width", str(MAX_AUDIT_WIDTH), "0x1")
        assert doc["width"] == MAX_AUDIT_WIDTH

    def test_alpha_is_an_unrecognized_argument(self, capsys):
        # Every verdict is judged at statbattery.ALPHA; there is no flag.
        code, out, err = _run(
            capsys, "audit", "--width", "8", "--alpha", "0.5", "0x55")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --alpha" in err
        assert "Traceback" not in err


class TestBenchmark:
    def test_two_rows_per_trial(self, capsys, tmp_path):
        csv_path = tmp_path / "bench.csv"
        doc = _run_json(
            capsys, "benchmark", "--curve", "toy29", "--trials", "1",
            "--seed", "4", "--out", str(csv_path),
        )
        _validator("benchmark-summary.schema.json").validate(doc)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == (
            "trial,source,entropy,ones,zeros,monobit_p,chi_square_p,"
            "runs_p,compression_ratio"
        )
        assert len(lines) == 3  # header + random + optimized
        assert lines[1].startswith("0,random,")
        assert lines[2].startswith("0,optimized,")

    def test_p256_summary_direction(self, capsys, tmp_path):
        doc = _run_json(
            capsys, "benchmark", "--curve", "p256", "--trials", "20",
            "--seed", "2", "--out", str(tmp_path / "b.csv"),
        )
        sources = doc["sources"]
        assert sources["optimized"]["mean_entropy"] > sources["random"][
            "mean_entropy"
        ]

    def test_deterministic_and_worker_independent(self, capsys, tmp_path):
        outs = []
        for workers, name in (("1", "a.csv"), ("1", "b.csv"), ("3", "c.csv")):
            path = tmp_path / name
            doc = _run_json(
                capsys, "benchmark", "--curve", "p256", "--trials", "4",
                "--seed", "11", "--out", str(path), "--workers", workers,
            )
            doc["manifest"].pop("timestamp")
            doc.pop("csv")
            outs.append((path.read_text(), json.dumps(doc, sort_keys=True)))
        assert outs[0] == outs[1] == outs[2]

    def test_trials_must_be_positive(self, capsys, tmp_path):
        code, _, err = _run(
            capsys, "benchmark", "--curve", "toy29", "--trials", "0",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2 and "--trials" in err

    def test_trials_above_cap_exits_2(self, capsys, tmp_path):
        csv_path = tmp_path / "x.csv"
        code, out, err = _run(
            capsys, "benchmark", "--curve", "toy29",
            "--trials", str(MAX_TRIALS + 1), "--out", str(csv_path),
        )
        assert code == 2 and out == ""
        assert err == f"benchmark: --trials must be in [1, {MAX_TRIALS}]\n"
        assert not csv_path.exists()

    @pytest.mark.parametrize("trials", [None, 50, MAX_TRIALS])
    def test_trials_up_to_cap_are_accepted(self, capsys, monkeypatch, trials):
        # Validation only: the stub stands in for running the trials.
        seen = []
        monkeypatch.setattr(
            cli, "cmd_benchmark", lambda args: seen.append(args.trials) or 0)
        argv = ["benchmark", "--curve", "toy29", "--out", "unused.csv"]
        if trials is not None:
            argv += ["--trials", str(trials)]
        code, out, err = _run(capsys, *argv)
        assert (code, out, err) == (0, "", "")
        assert seen == [100 if trials is None else trials]

    def test_unwritable_output_exits_4(self, capsys):
        code, _, err = _run(
            capsys, "benchmark", "--curve", "toy29", "--trials", "1",
            "--seed", "1", "--out", "/nonexistent-dir/bench.csv",
        )
        assert code == 4 and "cannot write" in err


class TestEnumerate:
    def test_toy29_json(self, capsys):
        doc = _run_json(capsys, "enumerate", "--curve", "toy29")
        _validator("enumerate.schema.json").validate(doc)
        assert doc["count"] == 37
        assert doc["hasse_ok"] is True
        assert len(doc["affine_points"]) == 36
        assert [0, 7] in doc["affine_points"]

    def test_csv_format(self, capsys):
        code, out, _ = _run(
            capsys, "enumerate", "--curve", "toy29", "--format", "csv")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "x,y"
        assert len(lines) == 37
        assert lines[1] == "0,7"

    def test_guard_exits_3(self, capsys):
        code, _, err = _run(capsys, "enumerate", "--curve", "p192")
        assert code == 3 and "validation failure" in err


class TestConfigFile:
    def test_config_file_applies(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text(
            "population_size = 8\nseed = 21\nmax_generations = 30\n"
            "mutation_factor = 4/5\ncrossover_rate = 0.9\nearly_stop = true\n"
        )
        doc = _run_json(
            capsys, "generate", "--curve", "toy29", "--config", str(config))
        echo = doc["manifest"]["config"]
        assert echo["population_size"] == 8
        assert echo["seed"] == 21
        assert doc["manifest"]["inputs"]["seed_source"] == "config-file"

    def test_flags_override_config(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("seed = 21\npopulation_size = 8\n")
        doc = _run_json(
            capsys, "generate", "--curve", "toy29", "--config", str(config),
            "--seed", "99",
        )
        assert doc["manifest"]["config"]["seed"] == 99
        assert doc["manifest"]["config"]["population_size"] == 8

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("popsize = 8\n")
        code, _, err = _run(
            capsys, "generate", "--curve", "toy29", "--config", str(config))
        assert code == 2 and "unknown config key" in err

    def test_user_curve_file_via_curve_flag(self, capsys, tmp_path):
        curve_file = tmp_path / "mini.curve"
        curve_file.write_text(
            "name = mini\np = 0x1d\na = 0x4\nb = 0x14\n"
            "gx = 0x0\ngy = 0x7\nn = 0x25\n"
        )
        doc = _run_json(
            capsys, "generate", "--curve", str(curve_file), "--seed", "2")
        assert doc["manifest"]["curve"] == "mini"

    def test_composite_field_prime_exits_3(self, capsys, tmp_path):
        curve_file = tmp_path / "c33.curve"
        curve_file.write_text(
            "name = c33\np = 0x21\na = 0x1\nb = 0x20\n"
            "gx = 0x1\ngy = 0x1\nn = 0x5\n"
        )
        code, out, err = _run(
            capsys, "generate", "--curve", str(curve_file), "--seed", "1")
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "field modulus fails the primality test" in err

    @pytest.mark.parametrize(
        "curve, message",
        [
            ("p = 0x1d\na = 0x4\nb = 0x14\ngx = 0x0\ngy = 0x7\nn = 0x4a\n",
             "base point order fails the primality test"),
            ("p = 0x1d\na = 0x4\nb = 0x14\ngx = 0x0\ngy = 0x7\nn = 0x6f\n",
             "base point order fails the primality test"),
            ("p = 0xb\na = 0x1\nb = 0x5\ngx = 0x0\ngy = 0x4\nn = 0xb\n",
             "n equals p (anomalous curve)"),
        ],
        ids=["n-2x37", "n-3x37", "anomalous"],
    )
    def test_bad_order_exits_3(self, capsys, tmp_path, curve, message):
        curve_file = tmp_path / "bad.curve"
        curve_file.write_text("name = bad\n" + curve)
        code, out, err = _run(
            capsys, "generate", "--curve", str(curve_file), "--seed", "1")
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
        assert message in err

    @pytest.mark.parametrize("command", ["generate", "benchmark"])
    @pytest.mark.parametrize(
        "key, value",
        [("a", "0x21"), ("b", "0x31"), ("gx", "0x1d"), ("gy", "0x24")],
    )
    def test_value_not_below_p_exits_3(
        self, capsys, tmp_path, command, key, value
    ):
        # Each value is congruent mod 29 to the valid toy29 one, so only the
        # SEC 1 range check can reject the file.
        pairs = dict(_TOY29_PAIRS, **{key: value})
        curve_file = tmp_path / "wide.curve"
        curve_file.write_text("".join(f"{k} = {v}\n" for k, v in pairs.items()))
        argv = [command, "--curve", str(curve_file), "--seed", "1"]
        if command == "benchmark":
            argv += ["--trials", "1", "--out", str(tmp_path / "b.csv")]
        code, out, err = _run(capsys, *argv)
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
        assert f"{key} = {value} is not below p" in err
        assert not (tmp_path / "b.csv").exists()

    @pytest.mark.parametrize("command", ["generate", "benchmark"])
    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("p", "0x2", "field prime must be >= 3, got 2"),
            ("p", "0x0", "field prime must be >= 3, got 0"),
            ("n", "0x0", "base point order must be >= 1, got 0"),
        ],
        ids=["p=0x2", "p=0x0", "n=0x0"],
    )
    def test_degenerate_p_or_n_exits_3(
        self, capsys, tmp_path, command, key, value, message
    ):
        pairs = dict(_TOY29_PAIRS, **{key: value})
        curve_file = tmp_path / "degenerate.curve"
        curve_file.write_text("".join(f"{k} = {v}\n" for k, v in pairs.items()))
        argv = [command, "--curve", str(curve_file), "--seed", "1"]
        if command == "benchmark":
            argv += ["--trials", "1", "--out", str(tmp_path / "b.csv")]
        code, out, err = _run(capsys, *argv)
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "failed validation" in err and message in err
        assert not (tmp_path / "b.csv").exists()

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(text=_curve_texts())
    def test_fuzzed_curve_file_never_crashes(self, tmp_path, text):
        curve_file = tmp_path / "fuzz.curve"
        curve_file.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["generate", "--curve", str(curve_file), "--seed", "1"])
        assert code in (0, 2, 3)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            assert err.getvalue() == "" and json.loads(out.getvalue())
        else:
            assert out.getvalue() == "" and err.getvalue().count("\n") == 1


def _generations_argv(tmp_path, route, population, generations):
    """A full-budget toy29 generate with the given budget, set by flags or
    by a config file (population None keeps the default)."""
    values = {"max_generations": generations}
    if population is not None:
        values["population_size"] = population
    argv = ["generate", "--curve", "toy29", "--seed", "1", "--no-early-stop"]
    if route == "flag":
        for key, value in values.items():
            argv += ["--" + key.replace("_", "-"), str(value)]
    else:
        config = tmp_path / "run.conf"
        config.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        argv += ["--config", str(config)]
    return argv


def _around(*caps):
    return [str(cap + step) for cap in caps for step in (-1, 0, 1)]


# Hostile values for every numeric flag: signs, NaN, infinities, other
# bases, and integers too long for int() (over 4300 digits) or just short.
_HOSTILE = [
    "-1", "-99", "nan", "NaN", "inf", "-inf", "1e999", "0x10", "", " 7 ",
    "1_000", "9" * 4000, "9" * 5000, "1" * 5000,
]
_GENERATE = ["generate", "--curve", "toy29", "--seed", "1"]
# (argv before the flag, flag, its parse, its accepted range, extra values)
_NUMERIC_FLAGS = [
    (_GENERATE, "--population-size", int, (4, MAX_POPULATION_SIZE), []),
    (_GENERATE, "--max-generations", int, (1, MAX_GENERATIONS), []),
    (_GENERATE, "--width", int, (6, 12), []),  # toy29: 6 to 2*6 bits
    (_GENERATE, "--crossover-rate", float, (0, 1),
     ["0.0", "-0.0", "1.0", "1.0000001", "0.9", "5e-324", "-1e-9"]),
    (["benchmark", "--curve", "toy29", "--out", "unused.csv"], "--trials", int,
     (1, MAX_TRIALS), []),
    (["audit", "0x1"], "--width", int, (1, MAX_AUDIT_WIDTH), []),
]


@st.composite
def _numeric_flag_calls(draw):
    head, flag, parse, (low, high), extra = draw(st.sampled_from(_NUMERIC_FLAGS))
    value = draw(st.one_of(
        st.sampled_from(_around(low, high) + _HOSTILE + extra),
        st.integers(-3 * high, 3 * high).map(str),
        st.floats().map(repr) if parse is float else st.nothing(),
    ))
    try:
        accepted = low <= parse(value) <= high
    except ValueError:
        accepted = False
    return [*head, f"{flag}={value}"], accepted


class TestUsage:
    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize(
        "flag,value,start",
        [
            ("--population-size", "1" * 5000,
             "argument --population-size: invalid int value: '111"),
            ("--width", "9" * 4000, "width 999"),
        ],
        ids=["argparse-echo", "program-echo"],
    )
    def test_hostile_value_is_cut_short_in_one_line(
        self, capsys, flag, value, start
    ):
        code, out, err = _run(capsys, "generate", "--curve", "p256", flag, value)
        assert code == 2 and out == ""
        assert err.startswith("ecscalar: " + start)
        assert err.endswith("...\n") and err.count("\n") == 1
        assert len(err.encode()) <= MAX_ERROR_BYTES

    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(call=_numeric_flag_calls())
    def test_numeric_flags_pass_or_exit_2_in_one_short_line(
        self, monkeypatch, call
    ):
        # Validation only: the stubs stand in for the search and the trials;
        # optimize still checks the width.
        argv, accepted = call
        monkeypatch.setattr(cli, "cmd_benchmark", lambda args: 0)
        monkeypatch.setattr(
            cli, "optimize", lambda config, params, width=None: de_opt.optimize(
                config.replace(max_generations=1), params, width))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        if accepted:
            assert (code, err.getvalue()) == (0, "")
        else:
            line = err.getvalue()
            assert code == 2 and out.getvalue() == ""
            assert line.count("\n") == 1 and line.endswith("\n")
            assert len(line.encode()) <= MAX_ERROR_BYTES

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0

    def test_bad_mutation_factor_exits_2(self, capsys):
        code, _, _ = _run(
            capsys, "generate", "--curve", "toy29",
            "--mutation-factor", "abc",
        )
        assert code == 2

    def test_zero_denominator_flag_exits_2(self, capsys):
        code, out, err = _run(
            capsys, "generate", "--curve", "toy29", "--seed", "1",
            "--mutation-factor", "1/0",
        )
        assert code == 2
        assert out == ""
        assert "--mutation-factor" in err and "Traceback" not in err

    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_mutation_factor_exponent_beyond_the_bound_exits_2(
        self, capsys, tmp_path, route
    ):
        # Fraction alone would spend about a minute building 10**30000000.
        argv = ["generate", "--curve", "toy29", "--seed", "1"]
        if route == "flag":
            argv += ["--mutation-factor", "1e30000000"]
        else:
            config = tmp_path / "run.conf"
            config.write_text("mutation_factor = 1e30000000\n")
            argv += ["--config", str(config)]
        start = time.perf_counter()
        code, out, err = _run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert "exponent must be in [-4300, 4300]" in err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_mutation_factor_out_of_range_is_one_short_line(
        self, capsys, tmp_path, route
    ):
        argv = ["generate", "--curve", "toy29", "--seed", "1"]
        if route == "flag":
            argv += ["--mutation-factor", "1e400"]
        else:
            config = tmp_path / "run.conf"
            config.write_text("mutation_factor = 1e400\n")
            argv += ["--config", str(config)]
        code, out, err = _run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "ecscalar: mutation_factor must be in (0, 1)\n"

    @pytest.mark.parametrize("factor", ["1e-4300", "0.0000001e-4299"])
    @pytest.mark.parametrize("command", ["generate", "benchmark"])
    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_mutation_factor_too_long_to_echo_exits_2_before_the_run(
        self, capsys, tmp_path, route, command, factor
    ):
        # The manifest could not print this factor, so no run starts.
        csv_path = tmp_path / "rows.csv"
        argv = [command, "--curve", "toy29", "--seed", "1"]
        if command == "benchmark":
            argv += ["--out", str(csv_path)]
        if route == "flag":
            argv += ["--mutation-factor", factor]
        else:
            config = tmp_path / "run.conf"
            config.write_text(f"mutation_factor = {factor}\n")
            argv += ["--config", str(config)]
        start = time.perf_counter()
        code, out, err = _run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == "ecscalar: mutation_factor has over 4300 digits\n"
        assert not csv_path.exists()

    def test_population_over_the_cap_flag_exits_2(self, capsys):
        code, out, err = _run(
            capsys, "generate", "--curve", "toy29", "--seed", "1",
            "--population-size", str(MAX_POPULATION_SIZE + 1),
        )
        assert code == 2
        assert out == ""
        assert "population_size" in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_population_over_the_cap_config_exits_2(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text(f"population_size = {MAX_POPULATION_SIZE + 1}\n")
        code, out, err = _run(
            capsys, "benchmark", "--curve", "toy29", "--seed", "1",
            "--out", str(tmp_path / "rows.csv"), "--config", str(config),
        )
        assert code == 2
        assert out == ""
        assert "population_size" in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "rows.csv").exists()

    @pytest.mark.parametrize(
        "population,generations,message",
        [
            (None, MAX_GENERATIONS + 1, "max_generations must be in"),
            (101, 9_901, "population_size * max_generations"),
        ],
        ids=["generations", "product"],
    )
    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_generations_over_a_cap_exit_2(
        self, capsys, tmp_path, route, population, generations, message
    ):
        code, out, err = _run(
            capsys, *_generations_argv(tmp_path, route, population, generations))
        assert code == 2
        assert out == ""
        assert message in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "population,generations", [(None, MAX_GENERATIONS), (100, MAX_GENERATIONS)]
    )
    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_generations_at_the_caps_are_accepted(
        self, capsys, monkeypatch, tmp_path, route, population, generations
    ):
        # Validation only: the stub runs one generation of the accepted config.
        seen = []

        def one_generation(config, params, width=None):
            seen.append(config)
            return de_opt.optimize(config.replace(max_generations=1), params, width)

        monkeypatch.setattr(cli, "optimize", one_generation)
        code, out, err = _run(
            capsys, *_generations_argv(tmp_path, route, population, generations))
        assert (code, err) == (0, "")
        assert json.loads(out)["manifest"]["config"]["max_generations"] == generations
        assert [c.max_generations for c in seen] == [generations]
        assert seen[0].population_size == (population or 50)

    def test_zero_denominator_config_exits_2(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("mutation_factor = 1/0\n")
        code, out, err = _run(
            capsys, "generate", "--curve", "toy29", "--seed", "1",
            "--config", str(config),
        )
        assert code == 2
        assert out == ""
        assert "zero denominator" in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1


def test_import_leaves_unused_modules_unloaded():
    # secrets serves only seedless runs, and nothing uses threads; neither
    # belongs on every command's import path.  Nor does dataclasses: it
    # pulls in inspect, ast, dis and tokenize, which nothing else loads,
    # and execs generated methods for every decorated class.  csv serves
    # only benchmark, and the manifest timestamp needs no datetime.
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    unused = (
        "secrets", "concurrent.futures",
        "dataclasses", "inspect", "ast", "dis", "tokenize",
        "csv", "datetime",
    )
    probe = (
        "import sys, ecscalar.cli; "
        f"print([m for m in {unused!r} if m in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "[]"


def test_back_to_back_calls_match_separate_processes(tmp_path, monkeypatch):
    # main reuses one parser per process; no call may see an earlier one.
    calls = [
        ["generate", "--curve", "p192", "--seed", "3"],
        ["benchmark", "--curve", "p256", "--trials", "3", "--seed", "5",
         "--out", "rows.csv"],
        ["generate", "--curve", "toy29", "--population-size", "many"],
        ["audit", "--curve", "p256", "0xabc"],
    ]
    rows = tmp_path / "rows.csv"

    def outcome(code, out, err):
        out = re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', out)
        return code, out, err, rows.read_text() if rows.exists() else None

    monkeypatch.chdir(tmp_path)
    in_process = []
    for argv in calls:
        rows.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        in_process.append(outcome(code, out.getvalue(), err.getvalue()))

    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    separate = []
    for argv in calls:
        rows.unlink(missing_ok=True)
        proc = subprocess.run(
            [sys.executable, "-m", "ecscalar.cli", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        separate.append(outcome(proc.returncode, proc.stdout, proc.stderr))
    assert [c for c, *_ in separate] == [0, 0, 2, 0]
    assert in_process == separate
