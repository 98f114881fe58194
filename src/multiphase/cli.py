"""Command-line interface: every capability as a subcommand with CSV/JSON output.

Exit codes: 0 success, 1 usage error, 2 numerical/domain error.  Each
subcommand's handler returns its payload, CSV text or a JSON-ready dict, and
`run` alone writes it: to stdout, or atomically (temp file + rename) to
--output.  `run` also echoes the resolved configuration, as the first key of a
JSON payload or as one `config:` line on the error stream before a CSV one, so
every run is self-describing.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import re
import sys
import tempfile
from typing import Sequence

import numpy as np

from . import __version__
from .numerics import QuadratureError, RngState
from .phase_kernel import (
    PhaseSystem,
    SeriesConsistencyError,
    ThreePhaseParams,
    TwoPhaseParams,
    _cdf,
    _csv,
    _moments,
    _pdf,
    _pieces,
    density_grid,
    two_phase_sample,
)
from .pde_oracle import (
    SolverFailure,
    SolverGrid,
    _chapman_kolmogorov,
    _identity_A10,
    _identity_A14,
    _window,
    solution_report,
    solve_for_system,
)
from .inference import NestingError, fit_two_phase, load_returns
from .pricing import (
    OptionTerms,
    PricingError,
    price_call_detail,
    surface,
    write_surface_csv,
)

__all__ = ["run", "main", "entrypoint"]

#: Subcommands whose payload is a JSON object; the others return CSV text.
_JSON_COMMANDS = ("fit", "price", "check-pde", "check-ck", "check-identities")

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


def _reject_other_model_flags(args) -> None:
    """A flag of the model that --model did not choose is a usage error."""
    if args.model == "two-phase":
        other = {"--sigma3": args.sigma3, "--q1": args.q1, "--q2": args.q2}
    else:
        other = {"--q": args.q, "--q-grid": getattr(args, "q_grid", None)}
    given = [flag for flag, value in other.items() if value is not None]
    if given:
        raise _UsageError(
            f"{args.model} model does not take {', '.join(given)}", args._parser
        )


def _model_params(args) -> PhaseSystem:
    _reject_other_model_flags(args)
    if args.model == "two-phase":
        if args.q is None:
            raise _UsageError("two-phase model requires --q", args._parser)
        return TwoPhaseParams(args.sigma1, args.sigma2, args.q)
    if args.sigma3 is None or args.q1 is None or args.q2 is None:
        raise _UsageError(
            "three-phase model requires --sigma3, --q1, --q2", args._parser
        )
    return ThreePhaseParams(args.sigma1, args.sigma2, args.sigma3, args.q1, args.q2)


def _add_model_flags(parser: _Parser) -> None:
    parser.add_argument("--model", choices=["two-phase", "three-phase"],
                        default="two-phase")
    parser.add_argument("--sigma1", type=float, required=True)
    parser.add_argument("--sigma2", type=float, required=True)
    parser.add_argument("--q", type=float, default=None,
                        help="interphase boundary (two-phase)")
    parser.add_argument("--sigma3", type=float, default=None)
    parser.add_argument("--q1", type=float, default=None,
                        help="upper boundary (three-phase, > 0)")
    parser.add_argument("--q2", type=float, default=None,
                        help="lower boundary (three-phase, < 0)")


def _add_two_phase_flags(parser: _Parser) -> None:
    for flag in ("--sigma1", "--sigma2", "--q"):
        parser.add_argument(flag, type=float, required=True)


def _seed(args, stderr) -> int:
    """--seed, or 0 with a notice on stderr when it was not given."""
    if args.seed is None:
        stderr.write("notice: --seed not given; using seed 0\n")
        return 0
    return args.seed


def _cmd_pdf(args, stderr) -> str:
    return _csv(density_grid(
        _model_params(args), args.t, args.x_grid, include_normal=args.include_normal
    ))


def _cmd_cdf(args, stderr) -> str:
    params = _model_params(args)
    x_grid = np.asarray(args.x_grid)
    return _csv({"x": x_grid, "cdf": _cdf(_pieces(params, args.t), x_grid)})


def _cmd_moments(args, stderr) -> str:
    if args.model == "three-phase":
        params = _model_params(args)
        columns, models = {"q1": [params.q1], "q2": [params.q2]}, [params]
    else:
        _reject_other_model_flags(args)
        if (args.q is None) == (args.q_grid is None):
            raise _UsageError(
                "two-phase moments need exactly one of --q / --q-grid", args._parser
            )
        q_values = [args.q] if args.q is not None else list(np.asarray(args.q_grid))
        columns = {"q": q_values}
        models = [TwoPhaseParams(args.sigma1, args.sigma2, float(q)) for q in q_values]
    summaries = [_moments(_pieces(model, args.t)) for model in models]
    for name in ("mean", "variance", "skewness", "kurtosis"):
        columns[name] = [getattr(summary, name) for summary in summaries]
    return _csv(columns)


def _cmd_sample(args, stderr) -> str:
    params = TwoPhaseParams(args.sigma1, args.sigma2, args.q)
    draws, _ = two_phase_sample(
        params, args.t, args.n, RngState(seed=_seed(args, stderr))
    )
    return _csv({"value": draws})


def _cmd_fit(args, stderr) -> dict:
    sample = load_returns(args.input, unit=args.unit, t=args.t)
    report = fit_two_phase(sample, demean=args.demean)
    return {"report": report.to_json_dict()}


def _cmd_price(args, stderr) -> dict:
    params = TwoPhaseParams(args.sigma1, args.sigma2, args.q)
    terms = OptionTerms(
        spot=args.s, strike=args.k, rate=args.r,
        tau_days=args.tau_days, tau_years=args.tau_years,
        day_count=args.daycount,
    )
    detail = price_call_detail(params, terms)
    return {
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


def _cmd_surface(args, stderr) -> str:
    rows = surface(
        TwoPhaseParams(args.sigma1, args.sigma2, args.q),
        args.strikes.tolist(), args.taus,
        spot=args.s, rate=args.r, day_count=args.daycount,
    )
    buf = io.StringIO()
    write_surface_csv(rows, buf)
    for row in rows:
        if row.note:
            stderr.write(f"note: tau={row.tau_days} K={row.strike}: {row.note}\n")
    return buf.getvalue()


def _cmd_check_pde(args, stderr) -> dict:
    params = _model_params(args)
    reference = lambda x: _pdf(_pieces(params, args.t_end), x)
    solution = solve_for_system(
        params, args.t_end, nx=args.nx, dt=args.dt, t_warm=args.t_warm
    )
    report = solution_report(solution, reference, window=(-args.window, args.window))
    report["pass"] = bool(report["sup_error_vs_closed_form"] <= args.tolerance)
    report["tolerance"] = args.tolerance
    return report


def _cmd_check_ck(args, stderr) -> dict:
    params = TwoPhaseParams(args.sigma1, args.sigma2, args.q)
    grid = SolverGrid(*_window(params, args.t))
    error, err_est, calls = _chapman_kolmogorov(params, args.s_mid, args.t, grid)
    return {
        "max_abs_error": error,
        "quadrature_error_estimate": err_est,
        "integrand_calls": calls,
        "tolerance": args.tolerance,
        "pass": bool(error <= args.tolerance),
    }


def _cmd_check_identities(args, stderr) -> dict:
    if args.trials < 1:
        raise _UsageError(f"--trials must be >= 1, got {args.trials}", args._parser)
    gen = RngState(seed=_seed(args, stderr)).generator()
    worst_a10 = worst_a14 = worst_est = 0.0
    for _ in range(args.trials):
        q, a2, t = gen.uniform(0.05, 2.0, 3)
        lhs, rhs, est_a10 = _identity_A10(q, a2, t)
        worst_a10 = max(worst_a10, abs(lhs - rhs))
        alpha, beta, t2 = gen.uniform(0.05, 2.0, 3)
        lhs, rhs, est_a14 = _identity_A14(alpha, beta, t2)
        worst_a14 = max(worst_a14, abs(lhs - rhs))
        worst_est = max(worst_est, est_a10, est_a14)
    return {
        "trials": args.trials,
        "worst_abs_error_A10": worst_a10,
        "worst_abs_error_A14": worst_a14,
        "worst_quadrature_error_estimate": worst_est,
        "tolerance": args.tolerance,
        "pass": bool(worst_a10 <= args.tolerance and worst_a14 <= args.tolerance),
    }


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
    _add_two_phase_flags(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(_handler=_cmd_sample)

    p = new("fit", "maximum likelihood fit + normality test (JSON)")
    p.add_argument("--input", required=True, help="CSV of returns")
    p.add_argument("--unit", choices=["fraction", "percent"], default="fraction")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--demean", action="store_true")
    p.set_defaults(_handler=_cmd_fit)

    p = new("price", "closed-form European call price (JSON)")
    _add_two_phase_flags(p)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--tau-days", type=float, default=None)
    p.add_argument("--tau-years", type=float, default=None)
    p.add_argument("--daycount", type=int, choices=[365, 252], default=365)
    p.set_defaults(_handler=_cmd_price)

    p = new("surface", "implied-volatility surface over strikes x maturities (CSV)")
    _add_two_phase_flags(p)
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
    _add_two_phase_flags(p)
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
    """Dispatch argv to a subcommand and write its payload; returns the
    process exit status."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        # argparse prints --help/--version (and usage fragments) to the real
        # process streams; redirect so callers always get the full output.
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            args = parser.parse_args(list(argv))
        if args.command is None:
            raise _UsageError("a subcommand is required", parser)
        config = _config_echo(args)
        if args.command in _JSON_COMMANDS:
            payload = {"config": config, **args._handler(args, stderr)}
            text = json.dumps(payload, indent=2) + "\n"
        else:
            stderr.write("config: " + json.dumps(config) + "\n")
            text = args._handler(args, stderr)
        _emit(text, args.output, stdout)
        return 0
    except SystemExit as exc:  # argparse --help / --version path
        return 0 if exc.code is None else int(exc.code)
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
