"""Command-line interface: subcommands, formats, exit codes, determinism."""

import json
import math

import numpy as np
import pytest

from irdf.cli import main
from irdf.closed_form import BscModel, bsc_irdf
from irdf.ftransform import FTransform

LN2 = math.log(2.0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        row = {}
        for key, cell in zip(header, cells):
            row[key] = cell == "true" if key == "converged" else float(cell)
        rows.append(row)
    return rows


class TestPoint:
    def test_boundary_point_in_bits(self, capsys):
        code, out, _ = run(
            capsys, "point", "--model", "bsc", "--beta", "0.25",
            "--f", "identity", "--D", "0.25", "--bits",
        )
        assert code == 0
        assert float(out) == pytest.approx(1.0, abs=1e-6)

    def test_nats_default(self, capsys):
        code, out, _ = run(
            capsys, "point", "--model", "bsc", "--beta", "0.25",
            "--f", "identity", "--D", "0.25",
        )
        assert code == 0
        assert float(out) == pytest.approx(LN2, abs=1e-6)

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run(
            capsys, "point", "--model", "bsc", "--beta", "0.15",
            "--f", "identity", "--D", "0.01",
        )
        assert code == 2
        assert "error" in err

    def test_missing_transform_parameter_exit_code(self, capsys):
        code, _, err = run(
            capsys, "point", "--model", "bsc", "--beta", "0.15",
            "--f", '{"kind": "power"}', "--D", "0.3",
        )
        assert code == 2
        assert "'p'" in err

    def test_steep_exponential_pooling(self, capsys):
        code, out, _ = run(
            capsys, "point", "--model", "bsc", "--beta", "0.1",
            "--f", "exponential", "--rho", "40", "--D", "0.96",
        )
        assert code == 0
        f = FTransform.exponential(40.0)
        assert float(out) == pytest.approx(bsc_irdf(BscModel(0.1, f), 0.96), abs=1e-8)

    def test_non_convergence_exit_code(self, capsys, monkeypatch):
        import dataclasses

        import irdf.cli as cli_mod

        real = cli_mod.solve_at_distortion

        def stub(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), converged=False)

        monkeypatch.setattr(cli_mod, "solve_at_distortion", stub)
        code, _, err = run(
            capsys, "point", "--model", "bsc", "--beta", "0.15",
            "--f", "identity", "--D", "0.3",
        )
        assert code == 3
        assert "converge" in err


class TestCurve:
    def test_csv_matches_closed_form(self, capsys):
        code, out, _ = run(
            capsys, "curve", "--model", "bsc", "--beta", "0.15",
            "--f", "identity", "--points", "50",
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 50
        m = BscModel(0.15)
        for row in rows:
            assert row["rate_nats"] == pytest.approx(bsc_irdf(m, row["D"]), abs=1e-6)
            # bits column is exactly the nats column divided by ln 2
            assert row["rate_bits"] == row["rate_nats"] / LN2
            assert row["converged"]

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "curve", "--model", "bec", "--delta", "0.4",
            "--f", "identity", "--points", "5", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 5
        assert set(rows[0]) == {"D", "f_of_D", "rate_nats", "rate_bits", "slope_s", "converged"}

    def test_svg_format(self, capsys):
        code, out, _ = run(
            capsys, "curve", "--model", "bsc", "--beta", "0.1",
            "--f", "identity", "--points", "5", "--format", "svg",
        )
        assert code == 0
        assert out.startswith("<svg") and "polyline" in out

    def test_byte_identical_reruns(self, capsys):
        argv = (
            "curve", "--model", "bsc", "--beta", "0.01",
            "--f", "exponential", "--rho", "9.2", "--points", "12",
        )
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "curve.csv"
        code, out, _ = run(
            capsys, "curve", "--model", "bsc", "--beta", "0.15",
            "--f", "identity", "--points", "4", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("D,f_of_D,rate_nats")


class TestClosedForm:
    def test_same_schema_as_curve(self, capsys):
        code, out, _ = run(
            capsys, "closed-form", "--model", "bec", "--delta", "0.4",
            "--f", "identity", "--points", "8",
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 8
        assert rows[-1]["rate_nats"] == pytest.approx(0.0, abs=1e-12)
        assert math.isnan(rows[0]["slope_s"])

    def test_single_level(self, capsys):
        code, out, _ = run(
            capsys, "closed-form", "--model", "bsc", "--beta", "0.15",
            "--f", "identity", "--D", "0.3", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["rate_nats"] == pytest.approx(bsc_irdf(BscModel(0.15), 0.3), rel=1e-12)


class TestVerify:
    def test_bec_verifies(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--model", "bec", "--delta", "0.4",
            "--f", "identity", "--points", "20",
        )
        assert code == 0
        assert out.startswith("max_deviation_nats=")

    def test_general_f_verifies(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--model", "bsc", "--beta", "0.15",
            "--f", "shifted_cubic", "--a", "0.4", "--points", "15", "--tol", "1e-5",
        )
        assert code == 0

    def test_impossible_tolerance_fails(self, capsys):
        code, _, _ = run(
            capsys, "verify", "--model", "bsc", "--beta", "0.15",
            "--f", "identity", "--points", "10", "--tol", "1e-18",
        )
        assert code == 1


class TestBrute:
    def test_json_payload(self, capsys):
        code, out, _ = run(
            capsys, "brute", "--model", "bsc", "--beta", "0.15",
            "--f", "identity", "--n", "2", "--M", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 2 and payload["M"] == 2
        assert payload["code_rate_nats"] == pytest.approx(0.5 * LN2, rel=1e-15)
        assert payload["margin"] >= -1e-12
        assert len(payload["best_encoder"]) == 4
        assert len(payload["best_decoder"]) == 2


class TestSubadd:
    def test_sqrt_passes(self, capsys):
        code, out, _ = run(capsys, "subadd", "--f", "sqrt", "--trials", "2000", "--n", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"]

    def test_square_fails(self, capsys):
        code, out, _ = run(
            capsys, "subadd", "--f", "power", "--p", "2", "--trials", "2000", "--n", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert not payload["all_passed"]
        assert payload["worst_margin"] == pytest.approx(0.5 - math.sqrt(0.5), abs=1e-12)

    def test_zero_length_tuples_exit_code(self, capsys):
        # printed "worst_margin": NaN, which is not JSON, and exited 0
        code, out, err = run(capsys, "subadd", "--f", "sqrt", "--n", "0", "--trials", "5")
        assert code == 2
        assert out == ""
        assert "n must be >= 1" in err


class TestSourceFile:
    def test_curve_from_json_source(self, capsys, tmp_path):
        spec = {
            "x_alphabet": ["0", "1"],
            "z_alphabet": ["0", "1"],
            "prior": [0.5, 0.5],
            "channel": [[0.85, 0.15], [0.15, 0.85]],
        }
        path = tmp_path / "bsc.json"
        path.write_text(json.dumps(spec))
        code, out, _ = run(
            capsys, "curve", "--source", str(path), "--f", "identity",
            "--d", "hamming", "--points", "6",
        )
        assert code == 0
        rows = parse_csv(out)
        m = BscModel(0.15)
        for row in rows:
            assert row["rate_nats"] == pytest.approx(bsc_irdf(m, row["D"]), abs=1e-6)
