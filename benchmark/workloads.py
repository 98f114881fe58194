"""The four closed-loop workloads: inputs, one operation, and its checks.

Each workload builds its inputs from the run seed, exposes `op(i)` (the
timed operation, called through the program's module attributes so the
traced run can wrap them) and `check(i, output)`, which returns a list of
failed-check messages computed apart from the program (see reference.py).
`finish()` returns the checks that need the whole run.  Operations come in
rounds of `round_size`; a run attempts whole rounds only.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

import reference as ref
from multiphase import cli, inference, pde_oracle, phase_kernel
from multiphase.numerics import RngState

#: Rounds of pre-built inputs; a run that outlasts the pool starts it again.
POOL_ROUNDS = 256


def _generator(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([stream, seed]))


def _close(actual: float, expected: float, rel: float) -> bool:
    return abs(actual - expected) <= rel * max(1.0, abs(expected))


class Workload:
    """Defaults: one operation per round and no checks that need the whole run."""

    round_size = 1

    def finish(self) -> list[str]:
        return []


class NormalityN500(Workload):
    """One fit_two_phase plus its LR verdict on n = 500; Gaussian and two-phase
    samples alternate (one round = one of each)."""

    round_size = 2
    n = 500

    def __init__(self, seed: int):
        rng = _generator(seed, 1)
        self.samples = []
        for _ in range(POOL_ROUNDS):
            self.samples.append(rng.normal(0.0, 0.01, self.n))
            narrow, wide = 0.01 * rng.uniform(0.5, 1.0), 0.01 * rng.uniform(1.5, 3.0)
            s1, s2 = (narrow, wide) if rng.random() < 0.5 else (wide, narrow)
            q = 0.01 * rng.uniform(-1.0, 1.0)
            self.samples.append(ref.two_phase_draws(rng, self.n, s1, s2, q, 1.0))

    def warmup(self) -> None:
        inference.fit_two_phase(inference.ReturnSample(self.samples[0]))

    def op(self, i: int):
        report = inference.fit_two_phase(
            inference.ReturnSample(self.samples[i % len(self.samples)])
        )
        return report, report.p_value < 0.05

    def check(self, i: int, output) -> list[str]:
        report, _ = output
        x = self.samples[i % len(self.samples)]
        errors = []
        null = ref.gaussian_null_loglik(x)
        if not _close(report.loglik_null, null, 1e-9):
            errors.append(f"loglik_null {report.loglik_null!r} != Gaussian MLE {null!r}")
        alt = ref.two_phase_loglik(x, report.sigma1_hat, report.sigma2_hat, report.q_hat)
        if not _close(report.loglik_alt, alt, 1e-8):
            errors.append(f"loglik_alt {report.loglik_alt!r} != reference {alt!r}")
        if report.loglik_alt < report.loglik_null - 1e-6:
            errors.append("loglik_alt below loglik_null")
        gap = 2.0 * (report.loglik_alt - report.loglik_null)
        if report.lr_statistic < 0 or abs(report.lr_statistic - gap) > 2e-6 + 1e-12 * abs(gap):
            errors.append(f"LR {report.lr_statistic!r} != 2(alt - null) = {gap!r}")
        if not 0.0 <= report.p_value <= 1.0:
            errors.append(f"p-value {report.p_value!r} outside [0, 1]")
        if report.sample_size != self.n:
            errors.append(f"sample_size {report.sample_size} != {self.n}")
        return errors


class RecoveryN50k(Workload):
    """two_phase_sample of 5e4 draws, then fit_two_phase on them (README example)."""

    truth = (0.01, 0.035, -0.02)
    n = 50_000

    def __init__(self, seed: int):
        self.params = phase_kernel.TwoPhaseParams(*self.truth)
        rng = _generator(seed, 2)
        self.seeds = [int(s) for s in rng.integers(0, 2**63, size=POOL_ROUNDS)]

    def warmup(self) -> None:
        draws, _ = phase_kernel.two_phase_sample(self.params, 1.0, 5000, RngState(1))
        inference.fit_two_phase(inference.ReturnSample(draws))

    def op(self, i: int):
        rng = RngState(self.seeds[i % len(self.seeds)])
        draws, _ = phase_kernel.two_phase_sample(self.params, 1.0, self.n, rng)
        return draws, inference.fit_two_phase(inference.ReturnSample(draws))

    def check(self, i: int, output) -> list[str]:
        draws, report = output
        errors = []
        distance = ref.ks_distance(draws, lambda x: ref.two_phase_cdf(x, *self.truth, 1.0))
        if distance > ref.ks_bound(draws.size):
            errors.append(f"KS distance {distance:.5f} > bound {ref.ks_bound(draws.size):.5f}")
        estimates = (report.sigma1_hat, report.sigma2_hat, report.q_hat)
        errors_se = (report.se_sigma1, report.se_sigma2, report.se_q)
        for name, est, se, true in zip(("sigma1", "sigma2", "q"), estimates, errors_se, self.truth):
            if se is None or not abs(est - true) <= 5.0 * se:
                errors.append(f"{name}_hat {est!r} not within 5 SE ({se!r}) of {true}")
        return errors


class PricingSurface(Workload):
    """cli.run(["surface", ...]) on the published 6 x 8 grid, CSV parsed back.

    One round prices the published set and three seeded sets, one in each
    other corner of (sign of q) x (sigma1 < sigma2 or sigma1 > sigma2).
    """

    round_size = 4
    spot, rate = ref.PUBLISHED_SPOT, ref.PUBLISHED_RATE
    header = ["tau_days", "strike", "price", "bs_reference_price", "implied_vol"]

    def __init__(self, seed: int):
        rng = _generator(seed, 3)
        self.param_sets = [ref.PUBLISHED_PARAMS]
        for q_sign, sigma1_larger in ((-1.0, True), (1.0, False), (1.0, True)):
            low, high = rng.uniform(0.25, 0.32), rng.uniform(0.38, 0.45)
            s1, s2 = (high, low) if sigma1_larger else (low, high)
            self.param_sets.append((s1, s2, q_sign * rng.uniform(0.01, 0.04)))
        strikes = ref.PUBLISHED_STRIKES
        self.argvs = [
            [
                "surface", "--sigma1", repr(s1), "--sigma2", repr(s2), "--q", repr(q),
                "--s", repr(self.spot), "--r", repr(self.rate),
                "--strikes", f"{strikes[0]:g}:{strikes[-1]:g}:5",
                "--taus", ",".join(str(d) for d in ref.PUBLISHED_TAUS_DAYS),
            ]
            for s1, s2, q in self.param_sets
        ]
        self.verdicts: dict[tuple[int, str], list[str]] = {}

    def warmup(self) -> None:
        self.op(0)

    def op(self, i: int):
        out, err = io.StringIO(), io.StringIO()
        status = cli.run(self.argvs[i % len(self.argvs)], stdout=out, stderr=err)
        if status != 0:
            raise RuntimeError(f"surface exited {status}: {err.getvalue().strip()}")
        text = out.getvalue()
        return text, list(csv.reader(io.StringIO(text)))

    def check(self, i: int, output) -> list[str]:
        text, rows = output
        # Identical CSV bytes for the same parameter set get the same verdict.
        key = (i % self.round_size, text)
        if key not in self.verdicts:
            self.verdicts[key] = self._check_surface(self.param_sets[key[0]], rows)
        return self.verdicts[key]

    def _check_surface(self, params, rows) -> list[str]:
        if not rows or rows[0] != self.header:
            return [f"bad CSV header {rows[:1]!r}"]
        if len(rows) != 49:
            return [f"CSV has {len(rows) - 1} rows, expected 48"]
        errors = []
        s1, s2, q = params
        spot, rate = self.spot, self.rate
        expected_cells = [(d, k) for d in ref.PUBLISHED_TAUS_DAYS for k in ref.PUBLISHED_STRIKES]
        # The reference column is Black-Scholes at the vol with the law's
        # variance per unit time.
        sigma_ref = {
            d: math.sqrt(ref.two_phase_mean_variance(s1, s2, q, d / 365.0)[1] / (d / 365.0))
            for d in ref.PUBLISHED_TAUS_DAYS
        }
        for (tau_days, strike), row in zip(expected_cells, rows[1:]):
            cell = f"{params} tau={tau_days}d K={strike:g}"
            if (float(row[0]), float(row[1])) != (tau_days, strike):
                errors.append(f"{cell}: row is for ({row[0]}, {row[1]})")
                continue
            price, bs_reference, vol = float(row[2]), float(row[3]), float(row[4])
            tau = tau_days / 365.0
            expected = ref.black_scholes_call(spot, strike, rate, sigma_ref[tau_days], tau)
            if abs(bs_reference - expected) > 1e-6:
                errors.append(
                    f"{cell}: bs_reference_price {bs_reference} vs reference {expected!r}"
                )
            if params == ref.PUBLISHED_PARAMS:
                published = ref.PUBLISHED_CALLS[tau_days][ref.PUBLISHED_STRIKES.index(strike)]
                if abs(price - published) > 0.001:
                    errors.append(f"{cell}: price {price} vs published {published}")
            lower = max(0.0, spot - strike * math.exp(-rate * tau))
            if not lower - 1e-6 <= price <= spot + 1e-6:
                errors.append(f"{cell}: price {price} outside [{lower}, {spot}]")
            quad = ref.call_price_quadrature(s1, s2, q, spot, strike, rate, tau)
            if abs(price - quad) > 1e-6:
                errors.append(f"{cell}: price {price} vs reference quadrature {quad!r}")
            if not math.isfinite(vol) or vol <= 0:
                errors.append(f"{cell}: implied vol {row[4]!r}")
                continue
            # The CSV keeps six significant digits of the vol and six decimals
            # of the price; the repricing tolerance follows from both.
            slack = ref.black_scholes_vega(spot, strike, rate, vol, tau) * vol * 5e-6 + 1e-6
            repriced = ref.black_scholes_call(spot, strike, rate, vol, tau)
            if abs(repriced - price) > slack:
                errors.append(f"{cell}: vol {vol} reprices to {repriced!r}, not {price}")
        return errors


class OracleCrosscheck(Workload):
    """One round of self-checks: two- and three-phase CN solves against the
    closed forms, one Chapman-Kolmogorov check, and a Monte-Carlo draw set for
    the quadrature moments of a seeded two-phase law."""

    two = phase_kernel.TwoPhaseParams(0.2, 0.3, -0.1)
    three = phase_kernel.ThreePhaseParams(0.2, 0.3, 0.25, 0.4, -0.3)
    grid = pde_oracle.SolverGrid(x_min=-3.2, x_max=3.4, nx=2001, dt=4e-4)
    ck_grid = pde_oracle.SolverGrid(x_min=-2.0, x_max=2.0, nx=301, dt=1e-3)
    window = 1.0
    n_draws = 100_000
    batch = 20_000

    def __init__(self, seed: int):
        rng = _generator(seed, 4)
        self.mc_params = phase_kernel.TwoPhaseParams(
            rng.uniform(0.15, 0.35), rng.uniform(0.15, 0.35), rng.uniform(-0.2, 0.2)
        )
        self.seeds = [int(s) for s in rng.integers(0, 2**63, size=POOL_ROUNDS)]
        self.batch_skew: list[np.ndarray] = []
        self.batch_kurt: list[np.ndarray] = []
        self.moments = None
        self.mean_variance = ref.two_phase_mean_variance(
            self.mc_params.sigma1, self.mc_params.sigma2, self.mc_params.q, 1.0
        )

    def warmup(self) -> None:
        for system in (
            phase_kernel.PhaseSystem.from_two_phase(self.two),
            phase_kernel.PhaseSystem.from_three_phase(self.three),
        ):
            pde_oracle.solve_system(system, self.grid, self.grid.t_warm + 25 * self.grid.dt)
        phase_kernel.three_phase_pdf(self.three, 0.0, 1.0)
        phase_kernel.two_phase_moments(self.mc_params, 1.0)
        phase_kernel.two_phase_sample(self.mc_params, 1.0, 1000, RngState(1))

    def _solve(self, system, closed_form):
        solution = pde_oracle.solve_system(system, self.grid, 1.0)
        exact = closed_form(solution.x[np.abs(solution.x) <= self.window], 1.0)
        return solution, exact

    def op(self, i: int):
        two, three = self.two, self.three
        return {
            "two": self._solve(
                phase_kernel.PhaseSystem.from_two_phase(two),
                lambda x, t: phase_kernel.two_phase_pdf(two, x, t),
            ),
            "three": self._solve(
                phase_kernel.PhaseSystem.from_three_phase(three),
                lambda x, t: phase_kernel.three_phase_pdf(three, x, t),
            ),
            "ck": pde_oracle.chapman_kolmogorov_check(two, 0.4, 1.0, self.ck_grid),
            "moments": phase_kernel.two_phase_moments(self.mc_params, 1.0),
            "draws": phase_kernel.two_phase_sample(
                self.mc_params, 1.0, self.n_draws, RngState(self.seeds[i % len(self.seeds)])
            )[0],
        }

    def check(self, i: int, output) -> list[str]:
        errors = []
        for name in ("two", "three"):
            solution, exact = output[name]
            if abs(solution.mass - 1.0) > 1e-4:
                errors.append(f"{name}-phase CN mass {solution.mass!r}")
            if solution.values.min() < 0.0:
                errors.append(f"{name}-phase CN minimum {solution.values.min()!r} < 0")
            inside = solution.values[np.abs(solution.x) <= self.window]
            sup = float(np.max(np.abs(inside - exact)) / np.max(exact))
            if sup > 1e-3:
                errors.append(f"{name}-phase CN relative sup error {sup:.3g} > 1e-3")
        if output["ck"] > 1e-4:
            errors.append(f"Chapman-Kolmogorov error {output['ck']:.3g} > 1e-4")
        moments = output["moments"]
        for name, value, expected in zip(
            ("mean", "variance"), (moments.mean, moments.variance), self.mean_variance
        ):
            if not _close(value, expected, 1e-9):
                errors.append(f"two_phase_moments {name} {value!r} vs reference {expected!r}")
        if self.moments is not None and moments != self.moments:
            errors.append("two_phase_moments changed between calls")
        self.moments = moments
        skew, kurt = ref.batch_skew_kurt(output["draws"], self.batch)
        self.batch_skew.append(skew)
        self.batch_kurt.append(kurt)
        return errors

    def finish(self) -> list[str]:
        """Pooled over the run, the batch-mean skewness and kurtosis of the
        draws lie within 4 batch standard errors of the quadrature moments."""
        errors = []
        if self.moments is None:
            return errors
        for name, batches, exact in (
            ("skewness", self.batch_skew, self.moments.skewness),
            ("kurtosis", self.batch_kurt, self.moments.kurtosis),
        ):
            values = np.concatenate(batches)
            mean = float(values.mean())
            se = float(values.std(ddof=1) / math.sqrt(values.size))
            if abs(mean - exact) > 4.0 * se:
                errors.append(
                    f"Monte-Carlo {name} {mean:.5f} vs quadrature {exact:.5f}: "
                    f"more than 4 SE ({se:.2g}) apart"
                )
        return errors


WORKLOADS = {
    "normality_n500": NormalityN500,
    "recovery_n50k": RecoveryN50k,
    "pricing_surface": PricingSurface,
    "oracle_crosscheck": OracleCrosscheck,
}
