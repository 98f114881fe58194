"""Command-line interface: every capability as a subcommand with CSV/JSON output.

Exit codes: 0 success, 1 usage error, 2 numerical/domain error.  File outputs
are written atomically (temp file + rename); the resolved configuration is
echoed into JSON payloads and to the error stream for CSV payloads so every
run is self-describing.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import os
import re
import sys
import tempfile
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .numerics import QuadratureError, RngState
from .phase_kernel import (
    DomainError,
    PhaseSystem,
    SeriesConsistencyError,
    ThreePhaseParams,
    TwoPhaseParams,
    _cdf,
    _moments,
    _pdf,
    _pieces,
    density_grid,
    two_phase_sample,
    write_density_csv,
)
from .pde_oracle import (
    SolverFailure,
    SolverGrid,
    _chapman_kolmogorov,
    report_to_json,
    solution_report,
    solve_for_system,
    verify_identity_A10,
    verify_identity_A14,
)
from .inference import FitConfig, NestingError, fit_two_phase, load_returns
from .pricing import (
    OptionTerms,
    PricingError,
    PricingModel,
    price_call_detail,
    surface,
    write_surface_csv,
)

__all__ = ["run", "main", "entrypoint"]

#: ValueError covers every domain, bracket, bounds and ingestion error.
_NUMERIC_ERRORS = (
    SeriesConsistencyError,
    SolverFailure,
    QuadratureError,
    PricingError,
    NestingError,
    ValueError,
    OSError,
)


class _UsageError(Exception):
    def __init__(self, message: str, parser: argparse.ArgumentParser):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage problems instead of exiting itself.

    The negative-number matcher is widened so grid values like `-1:1:401`
    parse as option values rather than being mistaken for flags.
    """

    def __init__(self, *args_, **kwargs):
        super().__init__(*args_, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d|^-\.\d")

    def error(self, message):
        raise _UsageError(message, self)


def _parse_linspace(text: str) -> np.ndarray:
    """`a:b:n` -> n points from a to b inclusive."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected a:b:n, got {text!r}")
    try:
        a, b = float(parts[0]), float(parts[1])
        n = int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: {exc}") from exc
    if n < 1:
        raise argparse.ArgumentTypeError(f"grid needs n >= 1, got {n}")
    if n == 1 and a != b:
        raise argparse.ArgumentTypeError("n=1 grid requires a == b")
    return np.linspace(a, b, n)


def _parse_step_range(text: str) -> np.ndarray:
    """`a:b:step` -> a, a+step, ... up to b inclusive."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected a:b:step, got {text!r}")
    try:
        a, b, step = (float(v) for v in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad range {text!r}: {exc}") from exc
    if step <= 0 or b < a:
        raise argparse.ArgumentTypeError(f"need a <= b and step > 0 in {text!r}")
    values = np.arange(a, b + 1e-9 * step, step)
    if values.size == 0:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return values


def _parse_day_list(text: str) -> list[float]:
    try:
        days = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad day list {text!r}: {exc}") from exc
    if not days:
        raise argparse.ArgumentTypeError("day list is empty")
    return days


def _write_text_atomic(path: str, payload: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(payload)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _emit(payload: str, output: str | None, stdout) -> None:
    if output is None or output == "-":
        stdout.write(payload)
    else:
        _write_text_atomic(output, payload)


def _config_echo(args: argparse.Namespace) -> dict:
    cfg = {k: v for k, v in sorted(vars(args).items()) if not k.startswith("_")}
    for key, value in cfg.items():
        if isinstance(value, np.ndarray):
            cfg[key] = value.tolist()
    return cfg


def _sig12(value: float) -> str:
    return np.format_float_positional(
        value, precision=12, unique=False, fractional=False, trim="k"
    )


def _model_params(args) -> TwoPhaseParams | ThreePhaseParams:
    if args.model == "two-phase":
        if args.q is None:
            raise _UsageError("two-phase model requires --q", args._parser)
        return TwoPhaseParams(args.sigma1, args.sigma2, args.q)
    if args.sigma3 is None or args.q1 is None or args.q2 is None:
        raise _UsageError(
            "three-phase model requires --sigma3, --q1, --q2", args._parser
        )
    return ThreePhaseParams(args.sigma1, args.sigma2, args.sigma3, args.q1, args.q2)


def _add_model_flags(parser: _Parser, three_phase: bool = True) -> None:
    parser.add_argument("--model", choices=["two-phase", "three-phase"],
                        default="two-phase")
    parser.add_argument("--sigma1", type=float, required=True)
    parser.add_argument("--sigma2", type=float, required=True)
    parser.add_argument("--q", type=float, default=None,
                        help="interphase boundary (two-phase)")
    if three_phase:
        parser.add_argument("--sigma3", type=float, default=None)
        parser.add_argument("--q1", type=float, default=None,
                            help="upper boundary (three-phase, > 0)")
        parser.add_argument("--q2", type=float, default=None,
                            help="lower boundary (three-phase, < 0)")


def _cmd_pdf(args, stdout, stderr) -> int:
    params = _model_params(args)
    table = density_grid(
        params, args.t, np.asarray(args.x_grid), include_normal=args.include_normal
    )
    buf = io.StringIO()
    write_density_csv(table, buf)
    _emit(buf.getvalue(), args.output, stdout)
    return 0


def _cmd_cdf(args, stdout, stderr) -> int:
    params = _model_params(args)
    x_grid = np.asarray(args.x_grid)
    values = _cdf(_pieces(params, args.t), x_grid)
    lines = ["x,cdf"]
    lines += [f"{_sig12(x)},{_sig12(v)}" for x, v in zip(x_grid, values)]
    _emit("\n".join(lines) + "\n", args.output, stdout)
    return 0


def _cmd_moments(args, stdout, stderr) -> int:
    if args.model == "three-phase":
        params = _model_params(args)
        header, rows = "q1,q2", [((params.q1, params.q2), params)]
    else:
        if (args.q is None) == (args.q_grid is None):
            raise DomainError("two-phase moments need exactly one of --q / --q-grid")
        q_values = [args.q] if args.q is not None else list(np.asarray(args.q_grid))
        header = "q"
        rows = [((q,), TwoPhaseParams(args.sigma1, args.sigma2, float(q)))
                for q in q_values]
    lines = [header + ",mean,variance,skewness,kurtosis"]
    for keys, params in rows:
        mom = _moments(_pieces(params, args.t))
        lines.append(",".join(_sig12(v) for v in
                              (*keys, mom.mean, mom.variance, mom.skewness,
                               mom.kurtosis)))
    _emit("\n".join(lines) + "\n", args.output, stdout)
    return 0


def _cmd_sample(args, stdout, stderr) -> int:
    params = TwoPhaseParams(args.sigma1, args.sigma2, args.q)
    if args.seed is None:
        stderr.write("notice: --seed not given; using seed 0\n")
        seed = 0
    else:
        seed = args.seed
    draws, _ = two_phase_sample(params, args.t, args.n, RngState(seed=seed))
    lines = ["value"] + [_sig12(v) for v in draws]
    _emit("\n".join(lines) + "\n", args.output, stdout)
    return 0


def _cmd_fit(args, stdout, stderr) -> int:
    sample = load_returns(args.input, unit=args.unit, t=args.t)
    cfg = FitConfig(tol=args.tol, demean=args.demean)
    report = fit_two_phase(sample, cfg)
    payload = {"config": _config_echo(args), "report": report.to_json_dict()}
    _emit(json.dumps(payload, indent=2) + "\n", args.output, stdout)
    return 0


def _cmd_price(args, stdout, stderr) -> int:
    model = PricingModel(TwoPhaseParams(args.sigma1, args.sigma2, args.q))
    terms = OptionTerms(
        spot=args.s, strike=args.k, rate=args.r,
        tau_days=args.tau_days, tau_years=args.tau_years,
        day_count=args.daycount,
    )
    detail = price_call_detail(model, terms)
    payload = {
        "config": _config_echo(args),
        "inputs": {
            "sigma1": args.sigma1, "sigma2": args.sigma2, "q": args.q,
            "spot": args.s, "strike": args.k, "rate": args.r,
            "tau_years": terms.tau, "day_count": args.daycount,
        },
        "regime": detail.regime,
        "price": detail.price,
        "mu_bar": detail.mu_bar,
        "lambda": detail.lambda_value,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.output, stdout)
    return 0


def _cmd_surface(args, stdout, stderr) -> int:
    model = PricingModel(TwoPhaseParams(args.sigma1, args.sigma2, args.q))
    rows = surface(
        model, list(np.asarray(args.strikes)), args.taus,
        spot=args.s, rate=args.r, day_count=args.daycount,
    )
    buf = io.StringIO()
    write_surface_csv(rows, buf)
    _emit(buf.getvalue(), args.output, stdout)
    notes = [r for r in rows if r.note]
    for row in notes:
        stderr.write(f"note: tau={row.tau_days} K={row.strike}: {row.note}\n")
    return 0


def _cmd_check_pde(args, stdout, stderr) -> int:
    params = _model_params(args)
    if isinstance(params, TwoPhaseParams):
        system = PhaseSystem.from_two_phase(params)
    else:
        system = PhaseSystem.from_three_phase(params)
    reference = lambda x: _pdf(_pieces(system, args.t_end), x)
    solution = solve_for_system(
        system, args.t_end, nx=args.nx, dt=args.dt, t_warm=args.t_warm
    )
    report = solution_report(solution, reference, window=(-args.window, args.window))
    report["pass"] = bool(report["sup_error_vs_closed_form"] <= args.tolerance)
    report["tolerance"] = args.tolerance
    report["config"] = _config_echo(args)
    _emit(report_to_json(report) + "\n", args.output, stdout)
    return 0


def _cmd_check_ck(args, stdout, stderr) -> int:
    params = TwoPhaseParams(args.sigma1, args.sigma2, args.q)
    smax = max(args.sigma1, args.sigma2)
    span = 8.5 * smax * math.sqrt(args.t)
    grid = SolverGrid(
        x_min=min(args.q, 0.0) - span, x_max=max(args.q, 0.0) + span,
        nx=201, dt=1e-3, t_warm=min(0.05, args.s_mid / 2),
    )
    error, err_est, calls = _chapman_kolmogorov(params, args.s_mid, args.t, grid)
    payload = {
        "config": _config_echo(args),
        "max_abs_error": error,
        "quadrature_error_estimate": err_est,
        "integrand_calls": calls,
        "tolerance": args.tolerance,
        "pass": bool(error <= args.tolerance),
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.output, stdout)
    return 0


def _cmd_check_identities(args, stdout, stderr) -> int:
    if args.seed is None:
        stderr.write("notice: --seed not given; using seed 0\n")
        seed = 0
    else:
        seed = args.seed
    gen = RngState(seed=seed).generator()
    worst_a10 = worst_a14 = 0.0
    for _ in range(args.trials):
        q, a2, t = gen.uniform(0.05, 2.0, 3)
        lhs, rhs = verify_identity_A10(q, a2, t)
        worst_a10 = max(worst_a10, abs(lhs - rhs))
        alpha, beta, t2 = gen.uniform(0.05, 2.0, 3)
        lhs, rhs = verify_identity_A14(alpha, beta, t2)
        worst_a14 = max(worst_a14, abs(lhs - rhs))
    payload = {
        "config": _config_echo(args),
        "trials": args.trials,
        "worst_abs_error_A10": worst_a10,
        "worst_abs_error_A14": worst_a14,
        "tolerance": args.tolerance,
        "pass": bool(worst_a10 <= args.tolerance and worst_a14 <= args.tolerance),
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.output, stdout)
    return 0


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="multiphase",
        description="Exact multi-phase diffusion distributions: densities, "
        "fitting, and option pricing.",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"multiphase {__version__} (rng pcg64)",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def new(name: str, help_text: str) -> _Parser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--output", default=None,
                       help="output path (default: stdout); written atomically")
        p.set_defaults(_parser=p)
        return p

    p = new("pdf", "density values on an x grid (CSV)")
    _add_model_flags(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--x-grid", type=_parse_linspace, required=True,
                   metavar="a:b:n")
    p.add_argument("--include-normal", action="store_true",
                   help="add a same-variance normal density column")
    p.set_defaults(_handler=_cmd_pdf)

    p = new("cdf", "cumulative distribution on an x grid (CSV)")
    _add_model_flags(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--x-grid", type=_parse_linspace, required=True,
                   metavar="a:b:n")
    p.set_defaults(_handler=_cmd_cdf)

    p = new("moments", "mean/variance/skewness/kurtosis (CSV)")
    _add_model_flags(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--q-grid", type=_parse_linspace, default=None,
                   metavar="a:b:n", help="sweep q over a grid (two-phase)")
    p.set_defaults(_handler=_cmd_moments)

    p = new("sample", "i.i.d. draws from the two-phase law (CSV)")
    p.add_argument("--sigma1", type=float, required=True)
    p.add_argument("--sigma2", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(_handler=_cmd_sample)

    p = new("fit", "maximum likelihood fit + normality test (JSON)")
    p.add_argument("--input", required=True, help="CSV of returns")
    p.add_argument("--unit", choices=["fraction", "percent"], default="fraction")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--demean", action="store_true")
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(_handler=_cmd_fit)

    p = new("price", "closed-form European call price (JSON)")
    p.add_argument("--sigma1", type=float, required=True)
    p.add_argument("--sigma2", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--tau-days", type=float, default=None)
    p.add_argument("--tau-years", type=float, default=None)
    p.add_argument("--daycount", type=int, choices=[365, 252], default=365)
    p.set_defaults(_handler=_cmd_price)

    p = new("surface", "implied-volatility surface over strikes x maturities (CSV)")
    p.add_argument("--sigma1", type=float, required=True)
    p.add_argument("--sigma2", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--strikes", type=_parse_step_range, required=True,
                   metavar="a:b:step")
    p.add_argument("--taus", type=_parse_day_list, required=True,
                   metavar="d1,d2,...")
    p.add_argument("--daycount", type=int, choices=[365, 252], default=365)
    p.set_defaults(_handler=_cmd_surface)

    p = new("check-pde", "cross-validate closed form vs finite-volume solve (JSON)")
    _add_model_flags(p)
    p.add_argument("--t-end", type=float, default=1.0)
    p.add_argument("--nx", type=int, default=2001)
    p.add_argument("--dt", type=float, default=1e-4)
    p.add_argument("--t-warm", type=float, default=0.05)
    p.add_argument("--window", type=float, default=1.0,
                   help="compare on |x| <= window")
    p.add_argument("--tolerance", type=float, default=1e-3)
    p.set_defaults(_handler=_cmd_check_pde)

    p = new("check-ck", "two-phase semigroup (convolution) check (JSON)")
    p.add_argument("--sigma1", type=float, required=True)
    p.add_argument("--sigma2", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--s-mid", type=float, required=True,
                   help="intermediate time 0 < s < t")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(_handler=_cmd_check_ck)

    p = new("check-identities", "quadrature checks of the flux integrals (JSON)")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tolerance", type=float, default=1e-7)
    p.set_defaults(_handler=_cmd_check_identities)

    return parser


def run(argv: Sequence[str], stdout=None, stderr=None) -> int:
    """Dispatch argv to a subcommand; returns the process exit status."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        # argparse prints --help/--version (and usage fragments) to the real
        # process streams; redirect so callers always get the full output.
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            args = parser.parse_args(list(argv))
    except _UsageError as exc:
        stderr.write(f"error: {exc}\n")
        stderr.write(exc.parser.format_usage())
        return 1
    except SystemExit as exc:  # argparse --help / --version path
        code = exc.code
        return 0 if code is None else int(code)
    handler: Callable | None = getattr(args, "_handler", None)
    if handler is None:
        stderr.write("error: a subcommand is required\n")
        stderr.write(parser.format_usage())
        return 1
    try:
        if handler in (_cmd_pdf, _cmd_cdf, _cmd_moments, _cmd_sample,
                       _cmd_surface):
            stderr.write("config: " + json.dumps(_config_echo(args)) + "\n")
        return handler(args, stdout, stderr)
    except _UsageError as exc:
        stderr.write(f"error: {exc}\n")
        stderr.write(exc.parser.format_usage())
        return 1
    except _NUMERIC_ERRORS as exc:
        stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2


def main(argv: Sequence[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


def entrypoint() -> None:
    sys.exit(main())
