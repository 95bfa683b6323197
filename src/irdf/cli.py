"""Command-line front end.

Subcommands: curve, point, closed-form, verify, brute, subadd. Exit codes:
0 success, 1 verification failure, 2 domain/validation error, 3 solver did
not converge. Numeric output uses 17 significant digits so doubles survive a
round trip; identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .closed_form import BecModel, BscModel, _reported_level, bec_irdf, bsc_irdf, domain_bounds
from .distortion import DistortionMatrix, is_subadditive_sample
from .errors import DomainError, IrdfError, NotConverged
from .ftransform import FTransform
from .operational import best_code_search
from .solver import (
    LN2,
    RdCurve,
    distortion_at_rate,
    solve_at_distortion,
    sweep_curve,
)
from .source import load_source

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_DOMAIN = 2
EXIT_NOT_CONVERGED = 3

CURVE_COLUMNS = ("D", "f_of_D", "rate_nats", "rate_bits", "slope_s", "converged")


def _g17(x: float) -> str:
    return f"{x:.17g}"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rows_to_csv(rows: list[dict]) -> str:
    lines = [",".join(CURVE_COLUMNS)]
    for r in rows:
        lines.append(
            ",".join(
                [
                    _g17(r["D"]),
                    _g17(r["f_of_D"]),
                    _g17(r["rate_nats"]),
                    _g17(r["rate_bits"]),
                    "nan" if r["slope_s"] is None else _g17(r["slope_s"]),
                    "true" if r["converged"] else "false",
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _to_json(payload) -> str:
    # NaN and Infinity are not JSON: a payload holding one raises ValueError (exit 2)
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _rows_to_svg(rows: list[dict]) -> str:
    ds = [r["D"] for r in rows]
    rs = [r["rate_nats"] for r in rows]
    w, h, pad = 640, 480, 40
    d0, d1 = min(ds), max(ds)
    r0, r1 = 0.0, max(max(rs), 1e-12)
    sx = (w - 2 * pad) / max(d1 - d0, 1e-12)
    sy = (h - 2 * pad) / max(r1 - r0, 1e-12)
    pts = " ".join(
        f"{pad + (d - d0) * sx:.2f},{h - pad - (r - r0) * sy:.2f}" for d, r in zip(ds, rs)
    )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w} {h}">\n'
        f'  <rect x="{pad}" y="{pad}" width="{w - 2 * pad}" height="{h - 2 * pad}"'
        f' fill="none" stroke="black"/>\n'
        f'  <polyline points="{pts}" fill="none" stroke="blue"/>\n'
        f'  <text x="{pad}" y="{h - 8}" font-size="12">D in [{_g17(d0)}, {_g17(d1)}],'
        f" rate up to {_g17(r1)} nats</text>\n"
        "</svg>\n"
    )


_FORMATTERS = {"csv": _rows_to_csv, "json": _to_json, "svg": _rows_to_svg}


def _point_row(D: float, f_of_D: float, rate: float, slope: float | None, converged: bool) -> dict:
    return {
        "D": D,
        "f_of_D": f_of_D,
        "rate_nats": rate,
        "rate_bits": rate / LN2,
        "slope_s": slope,
        "converged": converged,
    }


def _curve_rows(curve: RdCurve) -> list[dict]:
    return [_point_row(p.distortion, p.f_distortion, p.rate, p.slope, p.converged)
            for p in curve.points]


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", choices=("bsc", "bec"), help="built-in observation model")
    p.add_argument("--beta", type=float, default=0.0, help="crossover for --model bsc")
    p.add_argument("--delta", type=float, default=0.0, help="erasure rate for --model bec")
    p.add_argument("--source", help="path to a source JSON file")
    p.add_argument("--f", default="identity", help="transform kind name or JSON fragment")
    p.add_argument("--p", type=float, help="exponent for --f power")
    p.add_argument("--a", type=float, help="shift for --f shifted_cubic")
    p.add_argument("--rho", type=float, help="rate for --f exponential")
    p.add_argument("--d", default="hamming", help="distortion: 'hamming', JSON, or a path")


def _parse_f(args) -> FTransform:
    """--f as a JSON fragment, or a kind name whose parameter comes from --p,
    --a or --rho; from_spec raises ValueError when it is missing."""
    name = args.f.strip()
    if name.startswith("{"):
        return FTransform.from_spec(name)
    spec = {"kind": name, "p": args.p, "a": args.a, "rho": args.rho}
    return FTransform.from_spec({k: v for k, v in spec.items() if v is not None})


def _build_problem(args):
    """Returns (source, distortion, transform, model-or-None)."""
    f = _parse_f(args)
    if args.source:
        src = load_source(args.source)
        d = DistortionMatrix.from_spec(args.d, n_source=src.x_alphabet.size)
        return src, d, f, None
    if args.model == "bsc":
        model = BscModel(args.beta, f)
    elif args.model == "bec":
        model = BecModel(args.delta, f)
    else:
        raise DomainError("give either --source or --model bsc|bec")
    src = model.source()
    if args.d == "hamming":
        d = model.distortion()
    else:
        d = DistortionMatrix.from_spec(args.d, n_source=src.x_alphabet.size)
    return src, d, f, model


def _cmd_curve(args) -> int:
    src, d, f, _ = _build_problem(args)
    curve = sweep_curve(src, d, f, args.points)
    text = _FORMATTERS[args.format](_curve_rows(curve))
    _emit(text, args.out)
    if not curve.all_converged:
        raise NotConverged("one or more curve points did not converge")
    return EXIT_OK


def _cmd_point(args) -> int:
    src, d, f, _ = _build_problem(args)
    pt = solve_at_distortion(src, d, f, args.D)
    if args.format == "plain":
        rate = pt.rate / LN2 if args.bits else pt.rate
        _emit(_g17(rate) + "\n", args.out)
    else:
        row = _point_row(pt.distortion, pt.f_distortion, pt.rate, pt.slope, pt.converged)
        _emit(_FORMATTERS[args.format]([row]), args.out)
    if not pt.converged:
        raise NotConverged(f"point at D={args.D} did not converge")
    return EXIT_OK


def _closed_rate(model, D: float) -> float:
    return bsc_irdf(model, D) if isinstance(model, BscModel) else bec_irdf(model, D)


def _cmd_closed_form(args) -> int:
    _, _, f, model = _build_problem(args)
    if model is None:
        raise DomainError("closed-form needs --model bsc|bec")
    if args.points < 1:
        raise DomainError("closed-form needs --points >= 1")
    d_lo, d_hi = domain_bounds(model)
    if args.D is not None:
        levels = [args.D]
    else:
        steps = np.arange(1, args.points + 1) / args.points
        levels = list(d_lo + (d_hi - d_lo) * steps)
    rows = []
    for D in levels:
        rate = _closed_rate(model, D)
        # a level past d_max reports the zero-rate end, as `irdf point` does;
        # a closed form has no slope: null in JSON, nan in CSV
        rows.append(_point_row(*_reported_level(model, float(D)), rate, None, True))
    _emit(_FORMATTERS[args.format](rows), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    src, d, f, model = _build_problem(args)
    if model is None:
        raise DomainError("verify needs --model bsc|bec")
    curve = sweep_curve(src, d, f, args.points)
    if not curve.all_converged:
        raise NotConverged("one or more verification points did not converge")
    worst = max(abs(p.rate - _closed_rate(model, p.distortion)) for p in curve.points)
    _emit(f"max_deviation_nats={_g17(worst)} tol={_g17(args.tol)} points={args.points}\n", args.out)
    return EXIT_OK if worst <= args.tol else EXIT_VERIFY_FAILED


def _cmd_brute(args) -> int:
    if args.D is not None and not math.isfinite(args.D):
        raise ValueError(f"--D must be finite, got {args.D}")  # JSON cannot carry it
    src, d, f, _ = _build_problem(args)
    code, evaluation = best_code_search(
        src, d, f, args.n, args.M, criterion=args.criterion, threshold=args.D
    )
    rate = math.log(args.M) / args.n
    reference_d = distortion_at_rate(src, d, f, rate)
    payload = {
        "n": args.n,
        "M": args.M,
        "criterion": args.criterion,
        "best_encoder": code.encoder.tolist(),
        "best_decoder": code.decoder.tolist(),
        "avg_distortion": evaluation.avg_distortion,
        "excess_prob": evaluation.excess_prob,
        "threshold": evaluation.threshold,
        "code_rate_nats": rate,
        "single_letter_distortion_at_code_rate": reference_d,
        "margin": evaluation.avg_distortion - reference_d,
    }
    _emit(_to_json(payload), args.out)
    return EXIT_OK


def _cmd_subadd(args) -> int:
    f = _parse_f(args)
    if args.d == "hamming":
        d = DistortionMatrix.hamming(args.symbols)
    else:
        d = DistortionMatrix.from_spec(args.d)
    report = is_subadditive_sample(f, d, args.trials, args.n, seed=args.seed)
    payload = {
        "transform": f.name(),
        "trials": report.trials,
        "n": report.n,
        "all_passed": report.all_passed,
        "worst_margin": report.worst_margin,
        "worst_xs": report.worst_xs.tolist(),
        "worst_xhats": report.worst_xhats.tolist(),
    }
    _emit(_to_json(payload), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irdf",
        description="Rate-distortion curves for noisily observed sources under "
        "nonlinear distortion pooling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curve", help="sweep the full curve with the solver")
    _add_model_args(p)
    p.add_argument("--points", type=int, default=50)
    p.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_curve)

    p = sub.add_parser("point", help="solve a single distortion level")
    _add_model_args(p)
    p.add_argument("--D", type=float, required=True)
    p.add_argument("--bits", action="store_true", help="report the rate in bits")
    p.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_point)

    p = sub.add_parser("closed-form", help="evaluate the analytic curve of a built-in model")
    _add_model_args(p)
    p.add_argument("--D", type=float)
    p.add_argument("--points", type=int, default=50)
    p.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_closed_form)

    p = sub.add_parser("verify", help="compare solver against the analytic curve")
    _add_model_args(p)
    p.add_argument("--points", type=int, default=40)
    p.add_argument("--tol", type=float, default=1e-6, help="max allowed deviation, nats")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser(
        "brute", help="exhaustive best block code at (n, M)",
        description="Exhaustive best block code at (n, M), with the single-letter reference. "
                    "The reported margin is the code's avg_distortion, the mean over blocks of "
                    "the pooled distortion f^-1(mean f(d)), less the single-letter distortion "
                    "at the code's rate ln(M)/n. It is a lower-bound check only for concave f "
                    "(identity included), where it is >= 0 up to roundoff; under convex f it "
                    "can be negative at finite n (at n = 1, M = 2 on the bsc with beta 0.1: "
                    "-0.2162 under --f power --p 2, +0.09 under --f sqrt).")
    _add_model_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--criterion", choices=("average", "excess"), default="average")
    p.add_argument("--D", type=float,
                   help="threshold of the reported excess probability (default d_max + 1); "
                        "required by the excess criterion, which minimizes that probability")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_brute)

    p = sub.add_parser("subadd", help="randomized pooled-vs-mean comparison")
    p.add_argument("--f", default="sqrt")
    p.add_argument("--p", type=float)
    p.add_argument("--a", type=float)
    p.add_argument("--rho", type=float)
    p.add_argument("--d", default="hamming")
    p.add_argument("--symbols", type=int, default=2, help="alphabet size for hamming")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_subadd)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except NotConverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except (DomainError, IrdfError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
