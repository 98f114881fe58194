"""Run workloads several times on the same code and show each metric's spread.

    python3 benchmark/stability.py                      # every workload, 10 runs
    python3 benchmark/stability.py --runs 5 --workloads recovery_n50k
    python3 benchmark/stability.py --runs 1             # one pass over every workload

Each run is `benchmark/run.py --trace 0` in its own process with its own
seed (first-seed, first-seed + 1, ...), one after another.  For every
end-to-end metric it prints the median, the quartiles (Python's
statistics.quantiles, n=4), the spread (Q3 - Q1) / median and the bound from
BENCHMARK.json (from two runs up); a spread above a third of its bound is
flagged, setup_s included.  Exits 1 if a run failed a check or a spread is
flagged.
Raw results go to benchmark/results/stability-<time>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    raw = {}
    ok = True
    for workload in args.workloads:
        results = []
        for k in range(args.runs):
            result = run_once(workload, args.first_seed + k, args.seconds)
            print(f"{workload} seed {args.first_seed + k}: " + json.dumps(result), flush=True)
            results.append(result)
        raw[workload] = results
        ok &= all(r["correct"] for r in results)
        if len(results) < 2:
            continue
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{workload}: correct {all(r['correct'] for r in results)}, "
              f"failed shares {sorted(shares)}")
        print(f"  {'metric':14s} {'unit':6s} {'median':>12s} {'Q1':>12s} {'Q3':>12s} "
              f"{'spread':>7s} {'bound':>6s}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            flag = "  > bound/3" if spread > metric["bound"] / 3 else ""
            ok &= not flag
            print(f"  {metric['name']:14s} {metric['unit']:6s} {median:12.5g} {q1:12.5g} "
                  f"{q3:12.5g} {spread:7.2%} {metric['bound']:6.2f}{flag}")
        print(flush=True)
    out = BENCH_DIR / "results"
    out.mkdir(exist_ok=True)
    path = out / f"stability-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(raw, indent=1))
    print(f"raw results: {path.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
