"""End-to-end tests of the command-line interface."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import multiphase
from helpers import three_phase_quadrature_cdf, three_phase_quadrature_moments
from multiphase.cli import run
from multiphase.phase_kernel import ThreePhaseParams, TwoPhaseParams, two_phase_pdf

THREE_FLAGS = [
    "--model", "three-phase",
    "--sigma1", "0.2",
    "--sigma2", "0.3",
    "--sigma3", "0.25",
    "--q1", "0.4",
    "--q2", "-0.3",
    "--t", "1",
]
THREE = ThreePhaseParams(0.2, 0.3, 0.25, 0.4, -0.3)


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    status = run(argv, stdout=out, stderr=err)
    return status, out.getvalue(), err.getvalue()


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    assert rows, "empty CSV output"
    header, data = rows[0], rows[1:]
    assert all(len(r) == len(header) for r in data), "CSV is not rectangular"
    return header, data


class TestPdfCommand:
    def test_density_grid_csv(self):
        status, out, err = invoke(
            [
                "pdf",
                "--model", "two-phase",
                "--sigma1", "0.2",
                "--sigma2", "0.3",
                "--q", "-0.1",
                "--t", "1",
                "--x-grid", "-1:1:401",
            ]
        )
        assert status == 0
        header, data = parse_csv(out)
        assert header == ["x", "density"]
        assert len(data) == 401
        p = TwoPhaseParams(0.2, 0.3, -0.1)
        for row in data[::80]:
            x, density = float(row[0]), float(row[1])
            assert density == pytest.approx(two_phase_pdf(p, x, 1.0), rel=1e-10)
        assert "sigma1" in err  # resolved configuration echoed

    def test_three_phase_needs_its_flags(self):
        status, _, err = invoke(
            [
                "pdf",
                "--model", "three-phase",
                "--sigma1", "0.2",
                "--sigma2", "0.3",
                "--t", "1",
                "--x-grid", "-1:1:11",
            ]
        )
        assert status == 1
        assert "usage" in err.lower()


class TestCdfCommand:
    def test_monotone_column(self):
        status, out, _ = invoke(
            [
                "cdf",
                "--model", "two-phase",
                "--sigma1", "0.2",
                "--sigma2", "0.3",
                "--q", "-0.1",
                "--t", "1",
                "--x-grid", "-2:2:101",
            ]
        )
        assert status == 0
        _, data = parse_csv(out)
        values = [float(r[1]) for r in data]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert values[0] < 0.01 and values[-1] > 0.99

    def test_three_phase_matches_quadrature(self):
        # The three-phase cdf is a closed form, not a trapezoid of the pdf.
        status, out, _ = invoke(["cdf", *THREE_FLAGS, "--x-grid", "-1.2:1.2:9"])
        assert status == 0
        _, data = parse_csv(out)
        for row in data:
            x, value = float(row[0]), float(row[1])
            assert abs(value - three_phase_quadrature_cdf(THREE, x, 1.0)) <= 1e-10


class TestMomentsCommand:
    def test_q_sweep(self):
        status, out, _ = invoke(
            [
                "moments",
                "--model", "two-phase",
                "--sigma1", "0.025",
                "--sigma2", "0.05",
                "--t", "21",
                "--q-grid", "-0.1:0.1:5",
            ]
        )
        assert status == 0
        header, data = parse_csv(out)
        assert header[0] == "q"
        assert len(data) == 5
        assert {"mean", "variance", "skewness", "kurtosis"} <= set(header)

    def test_three_phase_matches_quadrature(self):
        status, out, _ = invoke(["moments", *THREE_FLAGS])
        assert status == 0
        header, data = parse_csv(out)
        row = dict(zip(header, map(float, data[0])))
        mean, var, skew, kurt = three_phase_quadrature_moments(THREE, 1.0)
        assert abs(row["mean"] - mean) <= 1e-10 * math.sqrt(var)
        assert abs(row["variance"] - var) <= 1e-10 * var
        assert abs(row["skewness"] - skew) <= 1e-8
        assert abs(row["kurtosis"] - kurt) <= 1e-8


class TestSampleCommand:
    ARGS = [
        "sample",
        "--sigma1", "0.2",
        "--sigma2", "0.3",
        "--q", "-0.1",
        "--t", "1",
        "--n", "64",
    ]

    def test_deterministic_with_seed(self):
        a = invoke(self.ARGS + ["--seed", "7"])
        b = invoke(self.ARGS + ["--seed", "7"])
        assert a[0] == b[0] == 0
        assert a[1] == b[1]

    def test_missing_seed_notice(self):
        status, out, err = invoke(self.ARGS)
        assert status == 0
        assert "seed 0" in err
        with_zero = invoke(self.ARGS + ["--seed", "0"])
        assert out == with_zero[1]

    def test_row_count(self):
        _, out, _ = invoke(self.ARGS + ["--seed", "3"])
        _, data = parse_csv(out)
        assert len(data) == 64


class TestFitCommand:
    def test_fit_json(self, tmp_path):
        gen = np.random.Generator(np.random.PCG64(12))
        path = tmp_path / "returns.csv"
        path.write_text("\n".join(f"{v:.8f}" for v in gen.normal(0, 0.02, 400)))
        status, out, _ = invoke(["fit", "--input", str(path), "--t", "1"])
        assert status == 0
        payload = json.loads(out)
        assert payload["report"]["sample_size"] == 400
        assert 0.0 <= payload["report"]["p_value"] <= 1.0
        assert payload["config"]["unit"] == "fraction"

    def test_missing_file(self, tmp_path):
        status, _, err = invoke(
            ["fit", "--input", str(tmp_path / "nope.csv")]
        )
        assert status == 2
        assert err.strip()


class TestPriceCommand:
    ARGS = [
        "price",
        "--sigma1", "0.3",
        "--sigma2", "0.4",
        "--q", "-0.02",
        "--s", "100",
        "--k", "80",
        "--r", "0.05",
        "--tau-days", "17",
    ]

    def test_published_price_json(self):
        status, out, _ = invoke(self.ARGS)
        assert status == 0
        payload = json.loads(out)
        assert payload["price"] == pytest.approx(20.192, abs=0.001)
        assert payload["regime"] in (1, 2, 3, 4)
        assert "mu_bar" in payload and "lambda" in payload
        assert payload["config"]["daycount"] == 365

    def test_tenor_flags_mutually_exclusive(self):
        status, _, err = invoke(self.ARGS + ["--tau-years", "0.5"])
        assert status in (1, 2)
        assert err.strip()


class TestSurfaceCommand:
    def test_flat_surface(self):
        status, out, _ = invoke(
            [
                "surface",
                "--sigma1", "0.3",
                "--sigma2", "0.3",
                "--q", "-0.02",
                "--s", "100",
                "--r", "0.05",
                "--strikes", "80:115:5",
                "--taus", "17,45,80,136,227,318",
            ]
        )
        assert status == 0
        header, data = parse_csv(out)
        assert header == ["tau_days", "strike", "price", "bs_reference_price", "implied_vol"]
        assert len(data) == 48
        for row in data:
            assert float(row[4]) == pytest.approx(0.3, abs=1e-8)

    def test_output_file_atomic(self, tmp_path):
        target = tmp_path / "surface.csv"
        status, out, _ = invoke(
            [
                "surface",
                "--sigma1", "0.3",
                "--sigma2", "0.4",
                "--q", "-0.02",
                "--s", "100",
                "--r", "0.05",
                "--strikes", "90:100:5",
                "--taus", "17",
                "--output", str(target),
            ]
        )
        assert status == 0
        assert out == ""
        assert target.exists()
        header, data = parse_csv(target.read_text())
        assert len(data) == 3
        leftovers = [f for f in os.listdir(tmp_path) if f != "surface.csv"]
        assert leftovers == []


class TestCheckCommands:
    def test_check_pde_passes_at_reduced_resolution(self):
        status, out, _ = invoke(
            [
                "check-pde",
                "--model", "two-phase",
                "--sigma1", "0.2",
                "--sigma2", "0.3",
                "--q", "-0.1",
                "--t-end", "1",
                "--nx", "1001",
                "--dt", "1e-3",
                "--tolerance", "1e-2",
            ]
        )
        assert status == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["sup_error_vs_closed_form"] <= 1e-2

    def test_check_ck(self):
        status, out, _ = invoke(
            [
                "check-ck",
                "--sigma1", "0.2",
                "--sigma2", "0.3",
                "--q", "-0.1",
                "--s-mid", "0.4",
                "--t", "1",
            ]
        )
        assert status == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["max_abs_error"] <= 1e-4

    def test_check_ck_reports_quadrature(self):
        status, out, _ = invoke(
            ["check-ck", "--sigma1", "0.2", "--sigma2", "0.3", "--q", "-0.1",
             "--s-mid", "0.4", "--t", "1"]
        )
        assert status == 0
        payload = json.loads(out)
        assert 0.0 <= payload["quadrature_error_estimate"] <= 1e-8
        assert isinstance(payload["integrand_calls"], int)
        assert payload["integrand_calls"] > 0

    def test_non_finite_inputs_rejected(self):
        for argv in (
            ["pdf", "--model", "two-phase", "--sigma1", "inf", "--sigma2", "0.3",
             "--q", "-0.1", "--t", "1", "--x-grid", "-1:1:5"],
            ["check-ck", "--sigma1", "inf", "--sigma2", "0.3", "--q", "-0.1",
             "--s-mid", "0.4", "--t", "1"],
            ["check-pde", "--model", "two-phase", "--sigma1", "0.2", "--sigma2",
             "0.3", "--q", "-0.1", "--nx", "201", "--dt", "inf"],
        ):
            status, out, err = invoke(argv)
            assert status != 0
            assert out == ""
            assert "DomainError" in err

    def test_check_identities(self):
        status, out, _ = invoke(
            ["check-identities", "--trials", "3", "--seed", "5"]
        )
        assert status == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["worst_abs_error_A10"] <= 1e-7
        assert payload["worst_abs_error_A14"] <= 1e-7


class TestExitDiscipline:
    def test_no_subcommand(self):
        status, _, err = invoke([])
        assert status == 1
        assert "usage" in err.lower()

    def test_unknown_subcommand(self):
        status, _, err = invoke(["frobnicate"])
        assert status == 1
        assert err.strip()

    def test_unknown_flag(self):
        status, _, err = invoke(
            ["price", "--sigma1", "0.3", "--bogus", "1"]
        )
        assert status == 1
        assert "usage" in err.lower()

    def test_numerical_error_exit_2(self):
        status, _, err = invoke(
            [
                "pdf",
                "--model", "two-phase",
                "--sigma1", "0.2",
                "--sigma2", "0.3",
                "--q", "-0.1",
                "--t", "-1",
                "--x-grid", "-1:1:5",
            ]
        )
        assert status == 2
        assert err.strip()

    def test_version(self):
        status, out, _ = invoke(["--version"])
        assert status == 0
        assert "pcg64" in out

    def test_help_exits_zero(self):
        status, out, _ = invoke(["--help"])
        assert status == 0
        assert "pdf" in out and "surface" in out

    def test_repeated_runs_match_fresh_processes(self):
        # The parser is built once per process; no parse state may carry
        # from one run to the next (here a failed parse that set --daycount).
        surface = ["surface", "--sigma1", "0.3", "--sigma2", "0.4", "--q", "-0.02",
                   "--s", "100", "--r", "0.05", "--strikes", "90:110:10",
                   "--taus", "30,60"]
        failing = surface[:1] + ["--daycount", "252", "--bogus", "1"]
        env = dict(os.environ, PYTHONPATH=str(Path(multiphase.__file__).parents[1]))
        script = "import sys; from multiphase.cli import main; sys.exit(main())"
        for argv in (failing, surface):
            fresh = subprocess.run(
                [sys.executable, "-c", script, *argv],
                capture_output=True, text=True, env=env, check=False,
            )
            assert invoke(argv) == (fresh.returncode, fresh.stdout, fresh.stderr)


class TestJsonRoundTrip:
    def test_all_json_commands_reparse(self):
        json_invocations = [
            ["price", "--sigma1", "0.3", "--sigma2", "0.4", "--q", "-0.02",
             "--s", "100", "--k", "100", "--r", "0.05", "--tau-days", "80"],
            ["check-ck", "--sigma1", "0.25", "--sigma2", "0.25", "--q", "-0.1",
             "--s-mid", "0.3", "--t", "1"],
            ["check-identities", "--trials", "2", "--seed", "9"],
        ]
        for argv in json_invocations:
            status, out, _ = invoke(argv)
            assert status == 0
            json.loads(out)
