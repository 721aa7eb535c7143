#!/usr/bin/env python3
"""Sweep every positroid of a given size, cross-check all methods, dump a CSV.

Example:
    python scripts/run_atlas.py --n 5 --rank 2 --out atlas_r2_n5.csv

Prints a distribution of h*-vectors over the connected instances at the end.
"""

import argparse
import collections
import contextlib
import csv
import io
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from positroid_hstar import cli  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--rank", type=int)
    parser.add_argument("--all", action="store_true",
                        help="include disconnected positroids")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", default=None, help="CSV path (default: stdout)")
    args = parser.parse_args()

    argv = ["atlas", "--n", str(args.n), "--format", "csv", "--jobs", str(args.jobs)]
    if args.rank is not None:
        argv += ["--rank", str(args.rank)]
    if not args.all:
        argv += ["--connected-only"]
    if args.out:
        argv += ["--out", args.out]  # an unwritable path exits 2 before the sweep
    table = io.StringIO()
    with contextlib.redirect_stdout(table):
        code = cli.main(argv)
    if code != 0:
        return code
    if args.out:
        text = pathlib.Path(args.out).read_text(encoding="utf-8")
    else:
        text = table.getvalue()
        sys.stdout.write(text)

    histogram = collections.Counter(
        tuple(int(c) for c in row["hstar"].split())
        for row in csv.DictReader(io.StringIO(text))
        if row["connected"] == "True")
    print("\nh* distribution over connected instances:", file=sys.stderr)
    for coeffs, count in sorted(histogram.items()):
        print(f"  {list(coeffs)}: {count}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
