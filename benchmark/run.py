"""Run one benchmark workload and print its result as one JSON line.

    python3 benchmark/run.py --workload normality_n500 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  One process, one caller, closed loop: the next operation starts
when the last one returns, and the BLAS pools are held at one thread.
Outputs are checked outside the timed region.  Times are scaled to a
reference speed by a calibration kernel timed between operations (see
make_calibration); the unscaled figures go to stderr.

--trace 0 prints the end-to-end metrics (setup_s, ops_per_s, op_median_ms,
peak_rss_mib).  --trace 1 runs half of --seconds untraced and half with the
span recorder installed, prints the per-layer metrics (with the tracing
overhead as the ratio of the two halves' ops_per_s), a per-span share table
on stderr, and writes the spans to benchmark/results/.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 5
#: The benchmark's own imports, which every set-up makes, and their time at
#: the reference speed.
IMPORT_FLOOR = [sys.executable, "-c", "import numpy, scipy.special"]
IMPORT_FLOOR_S = 0.5


def _import_program():
    """Put the checkout's src/ first on the path; fail unless it holds the package."""
    package = ROOT / "src" / "multiphase" / "__init__.py"
    if not package.is_file():
        sys.exit(f"error: {package} not found; run from a source checkout")
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import multiphase
    if Path(multiphase.__file__).resolve() != package.resolve():
        sys.exit(f"error: imported {multiphase.__file__}, not {package}")


def make_calibration():
    """Slowdown of this machine right now against a reference speed.

    The machine this benchmark was tuned on drifts between about 0.6x and
    1.3x of its usual speed over minutes, because other tenants share it,
    and no statistic of raw times within a run removes that.  A fixed kernel
    that calls nothing from the program tracks the drift.  It has two parts,
    because the drift does not slow both kinds of work alike: 150 NumPy
    calls on a 500-element array from a Python loop (interpreter and
    dispatch bound, like the fit at n = 500, the scalar quadratures and the
    CN time loop), then three passes of NumPy ufuncs over a 5e4-element
    array (memory bound, like the log-likelihood at n = 5e4 and the
    sampler).  The large array is written in place, so the kernel allocates
    nothing through the allocator the operations use.

    The slowdown is the best of two kernel times over 1 ms.  Every operation
    is timed between two calibrations, and its latency divided by their
    mean slowdown.
    """
    import numpy as np

    small = np.random.default_rng(0).random(500)
    large = np.random.default_rng(1).random(50_000)
    scratch = np.empty_like(large)

    def kernel():
        for _ in range(150):
            np.log1p(np.exp(-small * small)).sum()
        for _ in range(3):
            np.multiply(large, large, out=scratch)
            np.negative(scratch, out=scratch)
            np.exp(scratch, out=scratch)
            np.log1p(scratch, out=scratch)
            scratch.sum()

    def slowdown():
        times = []
        for _ in range(2):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
        return min(times) / 1e-3

    return slowdown


def set_up(name, seed):
    """Imports, inputs and warm-up; returns the workload and the raw time
    from the start of this process."""
    _import_program()
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        sys.exit(f"error: unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[name](seed)
    workload.warmup()
    return workload, time.perf_counter() - _PROCESS_START


def _wall(cmd):
    """Wall time of a fresh interpreter running cmd to its end."""
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"error: {' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
    return elapsed


def measure_setup_s(name, seed):
    """Set-up time at the reference speed: the median over SETUP_REPEATS
    fresh interpreters of their set-up time over the import floor's.

    Each repeat times, back to back, a fresh interpreter that only imports
    what every set-up imports whatever the program does (IMPORT_FLOOR), and
    one that sets up the workload (`--setup-only`) and exits, both from
    process start to exit.  Their ratio, times IMPORT_FLOOR_S, is the
    set-up time on a machine where the floor takes IMPORT_FLOOR_S.  The
    calibration kernel does not track imports: set-up times grew only as
    the power 0.35 of its interpreter-bound part's time.
    """
    setup = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", "1", "--setup-only"]
    ratios = []
    for _ in range(SETUP_REPEATS):
        floor = _wall(IMPORT_FLOOR)
        ratios.append(_wall(setup) / floor)
    return IMPORT_FLOOR_S * statistics.median(ratios)


def measure(workload, seconds, calibrate, recorder=None, first_op=0):
    """Closed loop of whole rounds until `seconds` of operation time have run.

    The calibration runs between operations, outside their timing.  Returns
    (raw latencies in s, latencies at the reference speed in s, failed
    count, check errors, next op index, every slowdown measured).
    """
    latencies, scaled, errors = [], [], []
    failed = 0
    busy = 0.0
    i = first_op
    before = calibrate()
    slowdowns = [before]
    while busy < seconds or (i - first_op) % workload.round_size:
        if recorder is not None:
            recorder.begin_op(i)
        start = time.perf_counter()
        try:
            output = workload.op(i)
        except Exception:  # a failed operation is counted, and the run goes on
            output = None
            failed += 1
            traceback.print_exc(file=sys.stderr)
        elapsed = time.perf_counter() - start
        if recorder is not None:
            recorder.end_op()
        after = calibrate()
        slowdowns.append(after)
        latencies.append(elapsed)
        scaled.append(elapsed / (0.5 * (before + after)))
        before = after
        busy += elapsed
        if output is not None:
            errors.extend(f"op {i}: {e}" for e in workload.check(i, output))
        i += 1
    return latencies, scaled, failed, errors, i, slowdowns


def round_median(latencies, round_size):
    """Median over rounds of the mean operation latency within each round.

    A round holds one operation of each input kind; taking the median per
    round keeps it from jumping between kinds whose latencies differ.
    """
    rounds = [latencies[k:k + round_size] for k in range(0, len(latencies), round_size)]
    return statistics.median(sum(r) / len(r) for r in rounds)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up and exit (one repeat of setup_s)")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("need --seed >= 0 and --seconds > 0")

    workload, own_setup = set_up(args.workload, args.seed)
    if args.setup_only:
        return
    calibrate = make_calibration()

    if args.trace:
        from tracing import Recorder, layer_report

        half = args.seconds / 2.0
        plain, plain_scaled, failed_a, errors_a, next_op, _ = measure(workload, half, calibrate)
        recorder = Recorder()
        recorder.install()
        try:
            traced, traced_scaled, failed_b, errors_b, _, _ = measure(
                workload, half, calibrate, recorder, next_op
            )
        finally:
            recorder.uninstall()
        latencies = plain + traced
        failed = failed_a + failed_b
        errors = errors_a + errors_b
        metrics, shares = layer_report(
            recorder, len(plain) / sum(plain_scaled), len(traced) / sum(traced_scaled)
        )
        results = BENCH_DIR / "results"
        results.mkdir(exist_ok=True)
        recorder.write(str(results / f"trace-{args.workload}-seed{args.seed}.json"))
        print(f"{'span':40s} {'calls/op':>10s} {'ms/op':>10s} {'share':>7s}", file=sys.stderr)
        for name, calls, ms, share in shares:
            print(f"{name:40s} {calls:10.1f} {ms:10.3f} {share:7.1%}", file=sys.stderr)
    else:
        latencies, scaled, failed, errors, _, slowdowns = measure(
            workload, args.seconds, calibrate
        )
        setup_s = measure_setup_s(args.workload, args.seed)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": ((len(scaled) - failed) / sum(scaled), "1/s"),
            "op_median_ms": (round_median(scaled, workload.round_size) * 1e3, "ms"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
        print(
            f"unscaled: ops_per_s {(len(latencies) - failed) / sum(latencies):.6g}, "
            f"op_median_ms {round_median(latencies, workload.round_size) * 1e3:.6g}, "
            f"set-up {own_setup:.4g} s in this process; "
            f"slowdown median {statistics.median(slowdowns):.4g}",
            file=sys.stderr,
        )
    errors.extend(workload.finish())
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": len(latencies),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
