"""Piece counts, build times and accuracy of the pruned Gaussian-piece expansion.

For seeded random systems of three, four and five phases (sigmas
log-uniform in [0.1, 1], boundaries uniform in [-1, 1], t = 1) the script
builds the law's Gaussian pieces twice: with phase_kernel._gaussian_pieces,
whose pruning keeps a ray while |w| exp(-(d^2 - a^2)/2) > 2^-63, and with the
earlier expansion kept as tests/helpers.reference_gaussian_pieces, which
split every ray within 40 scales of its next interface and dropped pieces
lighter than 1e-15.  It prints, per phase count, the median (max) piece
count and build time of each, and the largest deviation of the pruned pdf
(relative to the peak and to the free density f of the skew coordinate)
and cdf from the reference on 4001 points of [-6, 6], with the largest
absolute weight of a reference expansion.

Usage: PYTHONPATH=src python3 scripts/piece_pruning.py
"""

import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from helpers import (  # noqa: E402
    free_skew_density,
    random_phase_system,
    reference_gaussian_pieces,
)
from multiphase.phase_kernel import _cdf, _gaussian_pieces, _pdf  # noqa: E402

SYSTEMS = 20
X = np.linspace(-6.0, 6.0, 4001)


def build(pieces_of, sigmas, boundaries):
    """(phases, piece count, build time in ms)."""
    start = time.perf_counter()
    phases = pieces_of(sigmas, boundaries, 1.0)
    elapsed = 1e3 * (time.perf_counter() - start)
    return phases, sum(len(pieces) for *_, pieces in phases), elapsed


def median_max(values, fmt):
    return f"{fmt.format(np.median(values))} ({fmt.format(max(values))})"


def main():
    print("phases | pieces: reference -> pruned | build ms: reference -> pruned"
          " | max |dpdf|/peak | max |dpdf|/f | max |dcdf| | max W")
    for n_phases in (3, 4, 5):
        rng = np.random.default_rng(n_phases)
        counts, times = ([], []), ([], [])
        dpdf_peak = dpdf_free = dcdf = weight = 0.0
        for _ in range(SYSTEMS):
            sigmas, boundaries = random_phase_system(rng, n_phases)
            ref, ref_count, ref_ms = build(
                reference_gaussian_pieces, sigmas, boundaries
            )
            new, new_count, new_ms = build(_gaussian_pieces, sigmas, boundaries)
            counts[0].append(ref_count)
            counts[1].append(new_count)
            times[0].append(ref_ms)
            times[1].append(new_ms)
            gap = np.abs(_pdf(new, X) - _pdf(ref, X))
            dpdf_peak = max(dpdf_peak, float(gap.max() / _pdf(ref, X).max()))
            free = free_skew_density(sigmas, boundaries, X, 1.0)
            ratio = np.divide(gap, free, out=np.zeros_like(gap), where=free > 0)
            dpdf_free = max(dpdf_free, float(ratio.max()))
            dcdf = max(dcdf, float(np.max(np.abs(_cdf(new, X) - _cdf(ref, X)))))
            weight = max(weight, math.fsum(abs(w) for *_, p in ref for w, _ in p))
        print(
            f"{n_phases} | {median_max(counts[0], '{:.0f}')} -> "
            f"{median_max(counts[1], '{:.0f}')} | {median_max(times[0], '{:.2f}')}"
            f" -> {median_max(times[1], '{:.2f}')} | {dpdf_peak:.1e} | "
            f"{dpdf_free:.1e} | {dcdf:.1e} | {weight:.1f}"
        )


if __name__ == "__main__":
    main()
