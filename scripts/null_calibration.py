"""Size study for the likelihood-ratio normality test under a Gaussian null.

Fits the two-phase model to replicated Gaussian samples and reports the
rejection rate at several nominal levels for both p-values the fit reports:
the Davies bound for the supremum over the unidentified boundary (the
test's p-value) and the one-degree chi-squared tail of the same statistic,
which is far above nominal (about 27% at the 5% level for n = 500).  Also
prints LR quantiles against chi-square(1) and the time per fit.

Usage: python3 scripts/null_calibration.py [--replicates 200] [--n 500]
"""

import argparse
import time

import numpy as np
from scipy.stats import chi2

from multiphase.inference import ReturnSample, fit_two_phase
from multiphase.numerics import RngState

LEVELS = (0.10, 0.05, 0.01)
QUANTILES = (0.5, 0.9, 0.95, 0.99)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--replicates", type=int, default=200)
    parser.add_argument("--n", type=int, default=500)
    parser.add_argument("--sigma", type=float, default=0.01)
    parser.add_argument("--seed", type=int, default=40000)
    args = parser.parse_args(argv)

    lr_values, p_values, p_chi2 = [], [], []
    fit_seconds = 0.0
    for i in range(args.replicates):
        gen = RngState(seed=args.seed + i).generator()
        x = gen.normal(0.0, args.sigma, size=args.n)
        start = time.perf_counter()
        report = fit_two_phase(ReturnSample(x))
        fit_seconds += time.perf_counter() - start
        lr_values.append(report.lr_statistic)
        p_values.append(report.p_value)
        p_chi2.append(report.p_value_chi2)
    lr_values = np.array(lr_values)
    p_values = np.array(p_values)
    p_chi2 = np.array(p_chi2)

    print(f"replicates={args.replicates} n={args.n} sigma={args.sigma}")
    print(f"time per fit: {1e3 * fit_seconds / args.replicates:.2f} ms")
    print("\nrejection rates (nominal -> Davies bound, chi-square(1)):")
    for level in LEVELS:
        davies = float(np.mean(p_values < level))
        naive = float(np.mean(p_chi2 < level))
        print(f"  {level:5.2f} -> {davies:6.3f}, {naive:6.3f}")
    print("\nLR quantiles (observed vs chi-square(1)):")
    for quantile in QUANTILES:
        observed = float(np.quantile(lr_values, quantile))
        reference = float(chi2.ppf(quantile, df=1))
        print(f"  {quantile:5.2f}: {observed:7.3f} vs {reference:7.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
