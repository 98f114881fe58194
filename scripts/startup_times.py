"""Wall time and peak memory of each README command line as a fresh process.

Runs every command-line example of the README, and `fit` on a seeded
500-row returns file, as a new Python process with PYTHONPATH set to each
`src/` directory given.  The trees alternate within every repeat, and their
order flips from one repeat to the next, so that a drift in the machine's
load falls on all of them alike.  Prints, as JSON, the median wall time in
ms and the median peak resident set size in MiB (the child's ru_maxrss,
read by os.wait4 on its pid) of each command for each tree.  Every run
must exit 0.

Usage: python3 scripts/startup_times.py [SRC ...] [--runs 9] [--only fit,price]

SRC defaults to this checkout's src/.  To compare two commits, check one
out elsewhere (for example with git archive) and pass both src/ directories.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

#: (name, argv) of the README examples; {returns} is the seeded returns file.
COMMANDS = [
    ("pdf", ["pdf", "--model", "two-phase", "--sigma1", "0.2", "--sigma2", "0.3",
             "--q", "-0.1", "--t", "1.0", "--x-grid", "-1:1:401", "--include-normal"]),
    ("moments", ["moments", "--model", "two-phase", "--sigma1", "0.025",
                 "--sigma2", "0.05", "--t", "21", "--q-grid", "-0.5:0.5:101"]),
    ("cdf", ["cdf", "--model", "three-phase", "--sigma1", "0.2", "--sigma2", "0.3",
             "--sigma3", "0.25", "--q1", "0.4", "--q2", "-0.3", "--t", "1",
             "--x-grid", "-1.5:1.5:61"]),
    ("moments-three-phase", ["moments", "--model", "three-phase", "--sigma1", "0.2",
                             "--sigma2", "0.3", "--sigma3", "0.25", "--q1", "0.4",
                             "--q2", "-0.3", "--t", "1"]),
    ("sample", ["sample", "--sigma1", "0.01", "--sigma2", "0.035", "--q", "-0.02",
                "--t", "1", "--n", "100000", "--seed", "7"]),
    ("fit", ["fit", "--input", "{returns}", "--unit", "fraction"]),
    ("price", ["price", "--sigma1", "0.3", "--sigma2", "0.4", "--q", "-0.02",
               "--s", "100", "--k", "80", "--r", "0.05", "--tau-days", "17"]),
    ("surface", ["surface", "--sigma1", "0.3", "--sigma2", "0.4", "--q", "-0.02",
                 "--s", "100", "--r", "0.05", "--strikes", "80:115:5",
                 "--taus", "17,45,80,136,227,318"]),
    ("check-pde", ["check-pde", "--model", "two-phase", "--sigma1", "0.2",
                   "--sigma2", "0.3", "--q", "-0.1", "--nx", "2001", "--dt", "1e-4"]),
    ("check-ck", ["check-ck", "--sigma1", "0.2", "--sigma2", "0.3", "--q", "-0.1",
                  "--s-mid", "0.4", "--t", "1.0"]),
    ("check-identities", ["check-identities", "--trials", "20"]),
]

ENTRY = "import sys; from multiphase.cli import main; sys.exit(main())"


def write_returns(path: Path) -> None:
    """The seeded 500-row returns file that `fit` reads."""
    draws = np.random.Generator(np.random.PCG64(500)).normal(0.0, 0.01, 500)
    path.write_text("".join(f"{v:.8f}\n" for v in draws))


def run_cli(src: str, argv: list[str], stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """One fresh process running the command line argv on src; stderr is captured."""
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c", ENTRY, *argv],
        stdout=stdout, stderr=subprocess.PIPE, env=env, check=False,
    )


def run_once(src: str, argv: list[str]) -> tuple[float, float]:
    """(seconds of wall time, peak RSS in MiB) of one fresh process running
    argv on src."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-c", ENTRY, *argv], stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
    )
    stderr = child.stderr.read()
    child.stderr.close()
    # Reap the child here, not through Popen, to read its resource usage.
    _, status, usage = os.wait4(child.pid, 0)
    elapsed = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        raise SystemExit(
            f"{argv[0]} on {src} exited {child.returncode}: {stderr.decode()}"
        )
    return elapsed, usage.ru_maxrss / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="*", help="src/ directories to compare")
    parser.add_argument("--runs", type=int, default=9)
    parser.add_argument("--only", default="", help="comma-separated command names")
    args = parser.parse_args(argv)
    trees = [str(Path(s).resolve()) for s in args.src] or [
        str(Path(__file__).resolve().parents[1] / "src")
    ]
    names = {name for name, _ in COMMANDS}
    only = [n for n in args.only.split(",") if n]
    if set(only) - names:
        parser.error(f"unknown command(s) {sorted(set(only) - names)}")

    with tempfile.TemporaryDirectory() as tmp:
        returns = Path(tmp) / "returns.csv"
        write_returns(returns)
        medians, peaks = {}, {}
        for name, template in COMMANDS:
            if only and name not in only:
                continue
            command = [a.replace("{returns}", str(returns)) for a in template]
            runs = {src: [] for src in trees}
            for repeat in range(args.runs):
                for src in trees if repeat % 2 == 0 else trees[::-1]:
                    runs[src].append(run_once(src, command))
            medians[name] = {
                src: round(1e3 * statistics.median(t for t, _ in r), 1)
                for src, r in runs.items()
            }
            peaks[name] = {
                src: round(statistics.median(m for _, m in r), 1)
                for src, r in runs.items()
            }
            print(name, medians[name], peaks[name], file=sys.stderr, flush=True)
    print(json.dumps(
        {"runs": args.runs, "median_ms": medians, "median_peak_rss_mib": peaks},
        indent=2,
    ))


if __name__ == "__main__":
    main()
