"""Run the benchmark over many seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --seeds 1-10 [--workloads sweep,report] [--out runs.json]
    python3 perfbench/spread.py --compare first.json second.json

Runs go round-robin over the workloads, the order rotated by one workload
per seed, so slow drift of the host's speed spreads over every workload
instead of landing on one.  For each workload and end-to-end metric it
prints the median and the spread: the distance between the first and third
quartiles of the per-run values, as a share of their median, next to the
metric's bound from BENCHMARK.json.  --compare reads two --out files and
prints how far each median of the second moved from the first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def _load_config() -> dict:
    return json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(config: dict, names: list[str], seeds: list[int], trace: int) -> dict:
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for i, seed in enumerate(seeds):
        shift = i % len(names)
        for name in names[shift:] + names[:shift]:
            argv = [*config["command"], "--workload", name, "--seed", str(seed),
                    "--seconds", str(config["run_seconds"]), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                sys.exit(f"{name} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.splitlines()[-1])
            values = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"{name:10s} seed {seed:3d} correct={result['correct']} "
                  + " ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)
            runs[name].append({"seed": seed, "correct": result["correct"], **values})
    return runs


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(config: dict, runs: dict) -> None:
    for name, rows in runs.items():
        for metric in config["end_to_end"]:
            values = [row[metric["name"]] for row in rows]
            s = spread(values) if len(values) > 1 else 0.0
            verdict = "ok" if s < metric["bound"] / 3 else ("within bound" if s < metric["bound"] else "TOO WIDE")
            print(f"{name:10s} {metric['name']:12s} median {statistics.median(values):10.6g} "
                  f"{metric['unit']:5s} spread {s:7.2%} bound {metric['bound']:.0%} {verdict}")


def compare(config: dict, first: dict, second: dict) -> None:
    for name in first:
        for metric in config["end_to_end"]:
            a = statistics.median(row[metric["name"]] for row in first[name])
            b = statistics.median(row[metric["name"]] for row in second[name])
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            verdict = "ok" if worse <= metric["bound"] else "WORSE THAN BOUND"
            print(f"{name:10s} {metric['name']:12s} {a:10.6g} -> {b:10.6g} "
                  f"worse by {worse:+7.2%} (bound {metric['bound']:.0%}) {verdict}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar="RUNS_JSON")
    args = parser.parse_args()
    config = _load_config()
    if args.compare:
        first, second = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args.compare)
        compare(config, first, second)
        return 0
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in config["workloads"]]
    runs = collect(config, names, _seeds(args.seeds), args.trace)
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1), encoding="utf-8")
    if not args.trace:
        summarize(config, runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
