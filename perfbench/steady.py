"""Steadiness check: repeated runs of every workload.

    python3 perfbench/steady.py --runs 10 [--workloads fig12-sim,...]
        [--seconds 20]

Run ``i`` of each workload uses seed ``1 + i``; then two more runs
repeat seeds 1 and 2, so every workload's simulated results are also
compared between separate processes.  The workload order alternates
between runs.  For each (workload, end-to-end metric) pair it prints
the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread, ``(q3 - q1) / median``, of the ``--runs`` runs with distinct
seeds, against the metric's bound in BENCHMARK.json, for the scaled
values and the raw seconds beside them.

Exits non-zero when a run fails, when the share of failed operations
differs between runs of a workload, or when two runs of one workload
with the same seed (or two rounds of one run) hash their simulated
results differently.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


#: Seeds run a second time, after the runs with distinct seeds.
REPEATED_SEEDS = (1, 2)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit "
                         f"{proc.returncode}\n{proc.stdout}")
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    for line in lines:
        if line.startswith("raw "):
            out["raw"] = json.loads(line[4:])
        elif line.startswith("digests "):
            out["digests"] = json.loads(line[8:])
    return out


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=int, default=0,
                        help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    seeds = [1 + i for i in range(args.runs)] + list(REPEATED_SEEDS)
    results: dict[str, list[dict]] = defaultdict(list)
    for i, seed in enumerate(seeds):
        for name in (names if i % 2 == 0 else names[::-1]):
            out = run_once(name, seed, seconds)
            out["seed"] = seed
            results[name].append(out)
            values = " ".join(
                f"{k}={v['value']:.4g}" for k, v in out["metrics"].items())
            print(f"run {i} {name} seed {seed}: attempted "
                  f"{out['attempted']} failed {out['failed']} {values} "
                  f"ref_factor={out['raw']['ref_factor']:.4g}",
                  flush=True)

    problems = []
    print(f"\n{'workload':16s} {'metric':34s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s} "
          f"{'raw spread':>10s}")
    for name in names:
        runs = results[name]
        shares = {(r["failed"], r["attempted"]) for r in runs}
        ratios = {f / a for f, a in shares}
        if len(ratios) != 1:
            problems.append(f"{name}: failed share differs: {shares}")
        by_seed = defaultdict(set)
        for r in runs:
            by_seed[r["seed"]].update(r.get("digests", []))
        for seed, digests in by_seed.items():
            if len(digests) != 1:
                problems.append(f"{name} seed {seed}: simulated results "
                                f"hash differently: {sorted(digests)}")
        runs = runs[:args.runs]   # one per seed
        if len(runs) < 2:
            continue
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            median, q1, q3, rel = spread(values)
            raw = [r.get("raw", {}).get(metric) for r in runs]
            raw_rel = spread(raw)[3] if None not in raw else None
            print(f"{name:16s} {metric:34s} {median:12.4f} {q1:12.4f} "
                  f"{q3:12.4f} {rel:7.3f} {bounds[metric]:6} "
                  f"{raw_rel if raw_rel is None else round(raw_rel, 3)!s:>10}")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
