#!/usr/bin/env python3
"""Compares two builds of one bench over alternating runs.

Usage:

    python3 bench/ab_pairs.py --base <bench binary> --change <bench binary> \
        [--base-label <sha>] --pairs 5 --out BENCH_queue.json \
        [-- <bench args>]

Runs base and change `--pairs` times, alternating which goes first, each
writing its usual JSON (a "runs" list of rows). Each binary runs from
the root of its own checkout (the git work tree holding it), so a
provenance block names the commit it was built from. The output is the
change's last JSON with, on every row, a "pairs" block holding, for each
numeric field the row carries on both sides, the median and quartiles of
that field over the change's runs and over the base's runs; and an "ab"
block naming the base build and the pair count. Rows are matched by
every string field they carry (scenario, payload, mode).
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def checkout_of(binary):
    """The root of the git work tree holding `binary`, else its directory."""
    here = Path(binary).resolve().parent
    top = subprocess.run(["git", "-C", str(here), "rev-parse",
                          "--show-toplevel"], capture_output=True, text=True)
    return Path(top.stdout.strip()) if top.returncode == 0 else here


def run(binary, args, out_path):
    binary = Path(binary).resolve()
    subprocess.run([str(binary), "--out", str(Path(out_path).resolve())] +
                   args, check=True, stdout=subprocess.DEVNULL,
                   cwd=checkout_of(binary))
    return json.loads(Path(out_path).read_text())


def row_key(row):
    return tuple(sorted((k, v) for k, v in row.items() if isinstance(v, str)))


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--base-label", default="",
                        help="names the base build when its bench writes "
                             "no provenance, e.g. its git sha")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--out", required=True)
    parser.add_argument("bench_args", nargs="*")
    opts = parser.parse_args()

    values = {"base": {}, "change": {}}
    base_doc = change_doc = None
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(opts.pairs):
            order = (("base", opts.base), ("change", opts.change))
            # Alternate which side runs first, so drift in background load
            # does not favor one side.
            for side, binary in order if i % 2 == 0 else order[::-1]:
                doc = run(binary, opts.bench_args, Path(tmp) / f"{side}.json")
                for row in doc["runs"]:
                    for metric, value in row.items():
                        if is_number(value):
                            values[side].setdefault(
                                (row_key(row), metric), []).append(value)
                if side == "base":
                    base_doc = doc
                else:
                    change_doc = doc
            print(f"pair {i + 1}/{opts.pairs} done", file=sys.stderr)

    for row in change_doc["runs"]:
        summaries = {}
        for metric, value in row.items():
            key = (row_key(row), metric)
            if is_number(value) and key in values["base"]:
                summaries[metric] = {side: spread(values[side][key])
                                     for side in ("change", "base")}
        row["pairs"] = summaries
    change_doc["ab"] = {
        "pairs": opts.pairs,
        "base_provenance": base_doc.get("provenance", opts.base_label),
    }
    Path(opts.out).write_text(json.dumps(change_doc, indent=1) + "\n")
    print(f"wrote {opts.out}")


if __name__ == "__main__":
    main()
