"""Check that the benchmark is steady across seeds.

Runs ``run.py`` once per seed for each workload (one after another, with
``BENCHMARK.json``'s ``run_seconds``) and prints, per end-to-end metric,
the median and the inter-quartile spread as a share of the median next to
the metric's bound.  A spread above a third of its bound is flagged
(``setup_s`` is exempt: only its median is compared between runs)::

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --workload campus-serve --seeds 1-5
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from measure import quartile_spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> "list[int]":
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="default: all")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    steady = True
    for workload in workloads:
        values: "dict[str, list[float]]" = {}
        for seed in _seeds(args.seeds):
            command = [
                sys.executable, os.path.join(HERE, "run.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            done = subprocess.run(
                command, cwd=ROOT, capture_output=True, text=True, timeout=600
            )
            if done.returncode != 0:
                print(done.stdout + done.stderr, file=sys.stderr)
                return 1
            record = json.loads(done.stdout.strip().splitlines()[-1])
            steady &= record["correct"]
            for name, metric in record["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload} ({len(values['pps'])} seeds)")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            spread = quartile_spread(values[name])
            flag = "" if name == "setup_s" or spread <= bound / 3 else "  <-- above bound/3"
            steady &= not flag
            print(
                f"  {name:<14} median {statistics.median(values[name]):>14.6g}"
                f"  spread {spread:7.4f}  bound {bound}{flag}"
            )
            print("    " + " ".join(f"{value:.4g}" for value in values[name]))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
