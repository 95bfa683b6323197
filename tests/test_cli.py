"""Command-line interface: subcommands, formats, exit codes, determinism."""

import json
import math

import numpy as np
import pytest

from irdf.cli import main
from irdf.closed_form import BscModel, bsc_irdf, domain_bounds
from irdf.ftransform import FTransform

LN2 = math.log(2.0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """json.loads that rejects NaN, Infinity and -Infinity, which are not JSON."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


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

    def test_nan_level_exit_code(self, capsys):
        # a NaN level gave the zero-rate point, printed as 0, and exit 3
        code, out, err = run(capsys, "point", "--model", "bsc", "--beta", "0.1", "--D", "nan")
        assert code == 2 and out == ""
        assert "NaN" in err

    def test_missing_transform_parameter_exit_code(self, capsys):
        code, _, err = run(
            capsys, "point", "--model", "bsc", "--beta", "0.15",
            "--f", '{"kind": "power"}', "--D", "0.3",
        )
        assert code == 2
        assert "'p'" in err

    @pytest.mark.parametrize("kind, flag", [("power", "p"), ("exponential", "rho")])
    def test_missing_parameter_flag_exit_code(self, capsys, kind, flag):
        # a transform by name takes its parameter from its flag, and the spec
        # parser names the one missing
        code, out, err = run(
            capsys, "point", "--model", "bsc", "--beta", "0.15", "--f", kind, "--D", "0.3",
        )
        assert code == 2 and out == ""
        assert f"'{flag}'" in err

    @pytest.mark.parametrize("command", [["point", "--D", "0.5"], ["curve", "--points", "3"],
                                         ["brute", "--n", "2", "--M", "2"]],
                             ids=["point", "curve", "brute"])
    def test_overflowing_transform_exit_code(self, capsys, command):
        # exp(800 d) overflows at d = 1: `point` reported a feasible minimum
        # of inf, `curve` printed D = inf rows and exited 3, and `brute`
        # scanned inf and NaN costs after RuntimeWarnings
        code, out, err = run(
            capsys, *command[:1], "--model", "bsc", "--beta", "0.1",
            "--f", "exponential", "--rho", "800", *command[1:],
        )
        assert code == 2 and out == ""
        assert "overflows" in err

    def test_steep_exponential_pooling(self, capsys):
        code, out, _ = run(
            capsys, "point", "--model", "bsc", "--beta", "0.1",
            "--f", "exponential", "--rho", "40", "--D", "0.96",
        )
        assert code == 0
        f = FTransform.exponential(40.0)
        assert float(out) == pytest.approx(bsc_irdf(BscModel(0.1, f), 0.96), abs=1e-8)

    def test_level_whose_transform_overflows(self, capsys):
        # exp(9.2 * 100) overflows: the zero-rate point came after a
        # RuntimeWarning, which this suite turns into an error
        code, out, _ = run(
            capsys, "point", "--model", "bsc", "--beta", "0.1",
            "--f", "exponential", "--rho", "9.2", "--D", "100",
        )
        assert code == 0 and out == "0\n"

    def test_steep_tabulated_transform(self, capsys, tmp_path):
        # f^-1(f(y)) drifts by ~1e-5 on the table's 1e-12-wide step, which the
        # reduction rejected with an AssertionError (exit 1, a traceback)
        source = tmp_path / "source.json"
        source.write_text('{"joint": [[0.4, 0.1], [0.1, 0.4]]}')
        code, out, _ = run(
            capsys, "point", "--source", str(source),
            "--d", "[[0, 0.5000000000005], [0.5000000000005, 0]]",
            "--f", '{"kind": "tabulated", "points": [[0, 0], [0.5, 0.5], '
                   '[0.500000000001, 1], [1, 1.5]]}',
            "--D", "0.3",
        )
        assert code == 0 and float(out) > 0.0

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

    def test_single_point_exit_code(self, capsys):
        # a curve needs the zero-rate end and at least one level below it
        code, out, err = run(capsys, "curve", "--model", "bsc", "--beta", "0.1", "--points", "1")
        assert code == 2 and out == ""
        assert "n_points must be >= 2" in err

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

    def test_too_few_points_exit_code(self, capsys):
        # --points 0 printed a bare header and exited 0
        code, out, err = run(capsys, "closed-form", "--model", "bsc", "--beta", "0.1",
                             "--points", "0")
        assert code == 2 and out == ""
        assert "--points" in err

    @pytest.mark.parametrize("command", ["closed-form", "curve"])
    def test_nan_parameter_exit_code(self, capsys, command):
        # closed-form printed three NaN rows marked true and exited 0, and
        # curve exited 2 blaming an overflow of power(p=nan)
        code, out, err = run(capsys, command, "--model", "bsc", "--beta", "0.1",
                             "--f", "power", "--p", "nan", "--points", "3")
        assert code == 2 and out == ""
        assert "finite p" in err

    def test_nan_level_exit_code(self, capsys):
        code, out, err = run(capsys, "closed-form", "--model", "bsc", "--beta", "0.1",
                             "--D", "nan")
        assert code == 2 and out == ""
        assert "NaN" in err

    def test_single_level(self, capsys):
        code, out, _ = run(
            capsys, "closed-form", "--model", "bsc", "--beta", "0.15",
            "--f", "identity", "--D", "0.3", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["rate_nats"] == pytest.approx(bsc_irdf(BscModel(0.15), 0.3), rel=1e-12)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_level_past_dmax_reports_the_zero_rate_end(self, capsys, fmt):
        # f(100) = exp(920) overflows: JSON exited 2 and CSV printed f_of_D
        # inf; the row is now the zero-rate end (d_max, hi), as `point`
        # reports it
        argv = ("closed-form", "--model", "bsc", "--beta", "0.1",
                "--f", "exponential", "--rho", "9.2", "--D", "100", "--format", fmt)
        with pytest.warns(UserWarning, match="zero-rate"):
            code, out, _ = run(capsys, *argv)
        assert code == 0
        (row,) = strict_json(out) if fmt == "json" else parse_csv(out)
        f = FTransform.exponential(9.2)
        hi = 0.5 * (float(f.apply(0.0)) + float(f.apply(1.0)))
        assert row["D"] == domain_bounds(BscModel(0.1, f))[1] and row["f_of_D"] == hi
        assert row["rate_nats"] == 0.0 and row["converged"]


class TestStrictJson:
    @pytest.mark.parametrize("argv", [
        ("closed-form", "--model", "bsc", "--beta", "0.1", "--points", "2"),
        ("curve", "--model", "bsc", "--beta", "0.1", "--points", "5"),
        ("point", "--model", "bsc", "--beta", "0.1", "--D", "0.3"),
    ], ids=["closed-form", "curve", "point"])
    def test_json_output_parses_strictly(self, capsys, argv):
        # closed-form printed "slope_s": NaN, which a strict parser rejects
        code, out, _ = run(capsys, *argv, "--f", "identity", "--format", "json")
        assert code == 0
        rows = strict_json(out)
        slopes = [r["slope_s"] for r in rows]
        if argv[0] == "closed-form":
            assert slopes == [None, None]
        else:
            assert all(s <= 0.0 for s in slopes)

    def test_closed_form_csv_keeps_nan_slopes(self, capsys):
        code, out, _ = run(capsys, "closed-form", "--model", "bsc", "--beta", "0.1",
                           "--f", "identity", "--points", "2")
        assert code == 0
        assert out.splitlines()[1:] == [
            "0.30000000000000004,0.30000000000000004,0.13081203594113688,"
            "0.18872187554086703,nan,true",
            "0.5,0.5,0,0,nan,true",
        ]

    def test_non_finite_value_exit_code(self, capsys, monkeypatch):
        # a non-finite value in a payload exits 2 and prints nothing
        from irdf import cli

        monkeypatch.setattr(cli, "bsc_irdf", lambda model, D: math.inf)
        code, out, err = run(capsys, "closed-form", "--model", "bsc", "--beta", "0.1",
                             "--points", "2", "--format", "json")
        assert code == 2 and out == ""
        assert "JSON" in err


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

    def test_uncertified_points_exit_code(self, capsys, monkeypatch):
        # every kernel lane reports a gap above gap_tol, so no solved point
        # is certified; their rates must not enter the deviation
        from irdf import kernels

        real = kernels.ba_fixed_slope_loop

        def uncertified(*args):
            *out, gap = real(*args)
            return (*out, gap + 1e-6)

        monkeypatch.setattr(kernels, "ba_fixed_slope_loop", uncertified)
        code, out, err = run(
            capsys, "verify", "--model", "bsc", "--beta", "0.15",
            "--f", "identity", "--points", "10",
        )
        assert code == 3
        assert out == "" and "converge" in err


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

    def test_threshold_under_the_average_criterion(self, capsys):
        # --D was read only by the excess criterion: this printed threshold
        # 2.0 (d_max + 1) and excess_prob 0.0 for a code wrong 10 % of the time
        code, out, _ = run(capsys, "brute", "--model", "bsc", "--beta", "0.1",
                           "--n", "1", "--M", "2", "--D", "0.05")
        assert code == 0
        payload = json.loads(out)
        assert payload["criterion"] == "average"
        assert payload["threshold"] == 0.05
        assert payload["excess_prob"] == pytest.approx(0.1, abs=1e-15)

    @pytest.mark.parametrize("n, M", [(0, 2), (1, 0)])
    def test_empty_block_exit_code(self, capsys, n, M):
        # n = 0 died of a ZeroDivisionError traceback, exit 1
        code, out, err = run(capsys, "brute", "--model", "bsc", "--beta", "0.1",
                             "--n", str(n), "--M", str(M))
        assert code == 2 and out == ""
        assert ">= 1" in err

    @pytest.mark.parametrize("D", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_exit_code(self, capsys, D):
        # --D nan printed "threshold": NaN, which is not JSON, with excess_prob 0.0
        code, out, err = run(capsys, "brute", "--model", "bsc", "--beta", "0.1",
                             "--n", "1", "--M", "2", "--criterion", "excess", f"--D={D}")
        assert code == 2 and out == ""
        assert "finite" in err


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

    def test_overflowing_transform_exit_code(self, capsys):
        # exp(800 d) overflows at d = 1: printed "worst_margin": -Infinity,
        # which is not JSON, after a RuntimeWarning, and exited 0
        code, out, err = run(capsys, "subadd", "--f", "exponential", "--rho", "800",
                             "--trials", "100", "--n", "3")
        assert code == 2 and out == ""
        assert "overflows" in err


class TestSourceFile:
    @pytest.mark.parametrize("command", [["point", "--D", "0.3"], ["curve", "--points", "3"]],
                             ids=["point", "curve"])
    def test_nan_joint_exit_code(self, capsys, tmp_path, command):
        # a NaN entry passed the sign and sum checks: `point` printed 0 and
        # `curve` rows of zeros marked converged, both with exit 0
        path = tmp_path / "nan.json"
        path.write_text('{"joint": [[NaN, 0.5], [0.25, 0.25]]}')
        code, out, err = run(capsys, *command[:1], "--source", str(path), *command[1:])
        assert code == 2 and out == ""
        assert "non-finite" in err

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
