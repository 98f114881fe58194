"""Byte-compare the output of every README command line between two trees.

Runs each command of scripts/startup_times.py's COMMANDS (the README
examples, with `fit` on the same seeded 500-row returns file) once per
`src/` directory, as a fresh Python process with PYTHONPATH set to it, and
reports per command whether the exit status, stdout and stderr match byte
for byte.  Exits 1 if any command differs.

Usage: python3 scripts/compare_outputs.py SRC_A SRC_B

To compare with another commit, check it out elsewhere (for example with
git archive) and pass both src/ directories.
"""

import argparse
import sys
import tempfile
from pathlib import Path

from startup_times import COMMANDS, run_cli, write_returns


def _first_difference(a: bytes, b: bytes) -> str:
    """The 1-based line of the first difference, and the lines on each side."""
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for number, (x, y) in enumerate(zip(lines_a, lines_b), start=1):
        if x != y:
            return f"line {number}: {x[:80]!r} vs {y[:80]!r}"
    return f"{len(lines_a)} vs {len(lines_b)} lines"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    args = parser.parse_args(argv)
    trees = [str(Path(s).resolve()) for s in (args.src_a, args.src_b)]

    differs = []
    with tempfile.TemporaryDirectory() as tmp:
        returns = Path(tmp) / "returns.csv"
        write_returns(returns)
        for name, template in COMMANDS:
            command = [a.replace("{returns}", str(returns)) for a in template]
            results = [run_cli(src, command) for src in trees]
            results = [(done.returncode, done.stdout, done.stderr) for done in results]
            (code_a, out_a, err_a), (code_b, out_b, err_b) = results
            verdicts = [f"exit {code_a}" if code_a == code_b else f"exit {code_a} vs {code_b}"]
            for stream, a, b in (("stdout", out_a, out_b), ("stderr", err_a, err_b)):
                if a == b:
                    verdicts.append(f"{stream} identical ({len(a)} bytes)")
                else:
                    verdicts.append(f"{stream} DIFFERS, {_first_difference(a, b)}")
            if results[0] != results[1]:
                differs.append(name)
            print(f"{name}: " + "; ".join(verdicts), flush=True)
    print(f"commands that differ: {', '.join(differs) or 'none'}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
