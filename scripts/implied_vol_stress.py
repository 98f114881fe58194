"""Accuracy and cost of pricing.implied_vol against an mpmath bisection.

For six two-phase laws (S = 100, r = 5%), strikes 50:160:5 and maturities of
1, 3, 17, 45, 80, 136, 227, 318, 730 and 1825 days, the script prices each
cell in closed form and inverts the double-precision price twice: with
implied_vol, and by bisection in sigma on the Black-Scholes call evaluated
in 30-digit mpmath arithmetic from the same double inputs.  A cell is
invertible when implied_vol returns a vol (it raises when the price sits at
a vol bound or underflows), and well conditioned when a rounding of the
price moves the vol by less than 1e-10 relative:
price * 2.2e-16 / (vega * sigma) < 1e-10.  It prints both counts, the worst
relative error on the well-conditioned cells and on all invertible ones,
and the Black-Scholes evaluations per cell of the Newton loop (two erfc
calls each, without the two bracket ends and the reprice check).

Usage: PYTHONPATH=src python3 scripts/implied_vol_stress.py
"""

import math
import types

import mpmath

from multiphase import pricing
from multiphase.phase_kernel import TwoPhaseParams
from multiphase.pricing import (
    OptionTerms,
    PricingError,
    VolBoundsError,
    implied_vol,
    price_call,
)

SPOT, RATE = 100.0, 0.05
LAWS = (
    (0.3, 0.4, -0.02),
    (0.3, 0.4, 0.02),
    (0.4, 0.3, -0.02),
    (0.4, 0.3, 0.02),
    (0.3, 0.3, -0.02),
    (0.1, 0.25, -0.01),
)
STRIKES = [50.0 + 5.0 * i for i in range(23)]
TAUS_DAYS = (1, 3, 17, 45, 80, 136, 227, 318, 730, 1825)
SQRT_2PI = math.sqrt(2.0 * math.pi)
mpmath.mp.dps = 30


def mp_call(spot, strike, rate, sigma, tau):
    sd = sigma * mpmath.sqrt(tau)
    d1 = (mpmath.log(spot / strike) + rate * tau) / sd + sd / 2
    discount = strike * mpmath.exp(-rate * tau)
    return spot * mpmath.ncdf(d1) - discount * mpmath.ncdf(d1 - sd)


def mp_vol(price, spot, strike, rate, tau, lo=1e-6, hi=5.0):
    """Bisection in sigma to 2^-80 of the bracket, in mpmath arithmetic."""
    args = [mpmath.mpf(v) for v in (spot, strike, rate)]
    tau, target = mpmath.mpf(tau), mpmath.mpf(price)
    lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
    for _ in range(80):
        mid = (lo + hi) / 2
        if mp_call(*args, mid, tau) < target:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


class _CountingMath(types.SimpleNamespace):
    """math with a counter on erfc, installed as pricing.math."""

    def __init__(self):
        names = [k for k in dir(math) if not k.startswith("_") and k != "erfc"]
        super().__init__(**{k: getattr(math, k) for k in names})
        self.erfc_calls = 0

    def erfc(self, z):
        self.erfc_calls += 1
        return math.erfc(z)


def main():
    counter = _CountingMath()
    cells = invertible = well = 0
    worst_well = worst_all = 0.0
    evaluations = 0
    pricing.math = counter
    try:
        for law in LAWS:
            params = TwoPhaseParams(*law)
            for tau_days in TAUS_DAYS:
                for strike in STRIKES:
                    cells += 1
                    terms = OptionTerms(
                        spot=SPOT, strike=strike, rate=RATE, tau_days=tau_days
                    )
                    tau = terms.tau
                    price = price_call(params, terms)
                    before = counter.erfc_calls
                    try:
                        vol = implied_vol(price, SPOT, strike, RATE, tau)
                    except (VolBoundsError, PricingError):
                        continue
                    # two erfc per Black-Scholes price; three are checks
                    evaluations += (counter.erfc_calls - before) // 2 - 3
                    invertible += 1
                    exact = mp_vol(price, SPOT, strike, RATE, tau)
                    error = abs(vol - exact) / exact
                    worst_all = max(worst_all, error)
                    sd = exact * math.sqrt(tau)
                    d1 = (math.log(SPOT / strike) + RATE * tau) / sd + 0.5 * sd
                    vega = SPOT * math.sqrt(tau) * math.exp(-0.5 * d1 * d1) / SQRT_2PI
                    if vega > 0.0 and price * 2.2e-16 / (vega * exact) < 1e-10:
                        well += 1
                        worst_well = max(worst_well, error)
    finally:
        pricing.math = math
    print(f"cells: {cells}  invertible: {invertible}  well conditioned: {well}")
    print(f"worst relative error: well conditioned {worst_well:.2e}, "
          f"all invertible {worst_all:.2e}")
    print(f"Newton evaluations per invertible cell: {evaluations / invertible:.2f}")


if __name__ == "__main__":
    main()
