"""Host-time benchmark of the reproduction: one workload per call.

    python3 perfbench/run.py --workload fig12-sim --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a source checkout.  The workload runs in a fresh
child process with an isolated environment: every ``REPRO_*`` setting
is cleared, both persistent caches point at fresh directories under
``.perfbench-tmp/`` (removed again at the end) and ``PYTHONPATH`` names
only the checkout's ``src``.  Set-up is measured in four extra fresh
processes as well, and ``setup_s`` is the median of the five.

Prints a human-readable report, then, as the last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Exits non-zero, without a result line, when the
checkout has no program to measure or a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig12-sim", "xlat-blocks", "verify-theorem1",
             "serve-poisson")
#: Extra set-up-only processes per run (setup_s is a median).
SETUP_PROBES = 4
#: A child gets this long beyond its measuring time before it is
#: killed.
GRACE_S = 100

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "op_p50_ms": "ms", "ops_per_s": "1/s",
}


def per_layer_units() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def child_env(tmp: Path) -> dict[str, str]:
    """The caller's environment without any REPRO_* setting, with a
    fresh translation-cache directory and only the checkout's sources
    on the path."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(tmp)
    env["REPRO_XLAT_CACHE"] = str(tmp / "xlat")
    # The persistent behaviour store stays off: its file writes added
    # about 1 ms to the median verdict of verify-theorem1 (2.2 -> 3.2
    # ms) and made that median vary 3.5 times as much between rounds
    # (coefficient of variation 0.14 against 0.04), with noise from the
    # file system, not the host's speed, that no reference loop tracks.
    env["REPRO_BEHAVIOR_CACHE"] = "off"
    return env


def spawn(args, tmp: Path, extra: list[str]) -> dict:
    tmp.mkdir(parents=True)
    command = [sys.executable, str(HERE / "child.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--tmp", str(tmp),
               "--spawned-at", repr(time.perf_counter())] + extra
    proc = subprocess.run(command, env=child_env(tmp), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=args.seconds + GRACE_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{args.workload} child exited with "
                           f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def print_report(report: dict, setups: list[float]) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"rounds {report['rounds']}  ops {report['attempted']} "
          f"({report['op_samples']} timed samples)  failed "
          f"{report['failed']}")
    print(f"reference clock: x{report['ref_factor']:.4f} over "
          f"{report['ref_samples']} samples; set-up samples (raw) "
          + ", ".join(f"{s:.3f}" for s in setups))
    for failure in report["failures"]:
        print(f"  FAILED {failure}")
    print(f"{'metric':16s} {'scaled':>12s} {'raw':>12s}")
    for name in END_TO_END:
        raw = report["raw"].get(name)
        raw_text = f"{raw:12.4f}" if raw is not None else f"{'-':>12s}"
        print(f"{name:16s} {report['metrics'][name]:12.4f} {raw_text}")
    print("raw " + json.dumps(dict(report["raw"],
                                   ref_factor=report["ref_factor"])))
    print("digests " + json.dumps(sorted(set(report["digests"]))))
    layers = report.get("layers")
    if layers:
        wall = layers["trace.wall_s"]
        print(f"layer table (per round, scaled; traced wall {wall:.3f} s"
              f" vs untraced runs' wall_s for the tracing overhead)")
        for name, value in layers.items():
            share = ""
            if name.endswith("_s") and not name.endswith("per_s") \
                    and wall and name != "trace.wall_s" \
                    and name != "workloads.inputs_s":
                share = f"{100 * value / wall:6.1f}%"
            print(f"  {name:34s} {value:14.4f} {share}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is "
              f"missing", file=sys.stderr)
        return 2
    units = per_layer_units() if args.trace else END_TO_END

    tmp_root = ROOT / ".perfbench-tmp"
    run_tmp = tmp_root / f"{args.workload}-{os.getpid()}"
    try:
        probes = [spawn(args, run_tmp / f"setup-{i}", ["--setup-only"])
                  for i in range(SETUP_PROBES)]
        report = spawn(args, run_tmp / "run", [])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run still uses it
    setups = [p["raw"]["setup_s"] for p in probes + [report]]
    report["raw"]["setup_s"] = statistics.median(setups)
    report["metrics"]["setup_s"] = statistics.median(
        p["metrics"]["setup_s"] for p in probes + [report])
    print_report(report, setups)

    source = report["layers"] if args.trace else report["metrics"]
    result = {
        # Every round of a run repeats the same operations, so their
        # simulated results must hash alike.
        "correct": len(set(report["digests"])) == 1,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": source[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
