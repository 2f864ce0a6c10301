"""One workload run in a fresh process (started by ``run.py``).

Builds the workload from the seed, runs whole rounds until the next
one would end past ``--seconds``, checks the outputs, and prints one
JSON object: end-to-end metrics (scaled to the reference clock),
the raw seconds beside them, the per-layer metrics of a traced run,
the operations attempted and failed, and each round's digest.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import refclock
import tracing

#: Seconds to span names, for the per-layer time metrics.
LAYER_TIMES = {
    "machine.self_s": "machine",
    "tcg.frontend_s": "tcg.frontend",
    "tcg.opt.constprop_s": "tcg.opt.constprop",
    "tcg.opt.memopt_s": "tcg.opt.memopt",
    "tcg.opt.fence_merge_s": "tcg.opt.fence_merge",
    "tcg.opt.deadcode_s": "tcg.opt.deadcode",
    "tcg.backend_s": "tcg.backend",
    "isa.arm.assemble_s": "isa.arm.assemble",
    "dbt.xlat_cache.key_s": "dbt.xlat_cache.key",
    "dbt.xlat_cache.put_s": "dbt.xlat_cache.put",
    "dbt.xlat_cache.get_s": "dbt.xlat_cache.get",
    "core.enum_s": "core.enum",
    "core.verifier_s": "core.verifier",
    "core.behavior_memo_s": "core.behaviors",
    "loader.build_s": "loader.build",
}
LAYER_COUNTS = (
    "machine.host_insns", "dbt.block_dispatches",
    "dbt.chained_dispatches", "tcg.blocks", "tcg.guest_insns",
    "tcg.opt.folded", "tcg.opt.mem_eliminated", "tcg.opt.fences_merged",
    "tcg.opt.dead_removed", "dbt.xlat_cache.misses",
    "dbt.xlat_cache.hits", "dbt.xlat_cache.disk_hits",
)
ENUM_COUNTS = ("combos", "executions_enumerated", "consistent",
               "rf_prefix_rejected", "rf_sleep_skips",
               "symmetry_collapsed", "co_classes")
#: Reference samples each process takes right after its set-up.
SETUP_SAMPLES = 8
SERVE_LAYER = ("serve.queue_ms_p50", "serve.exec_ms_p50",
               "serve.transport_ms_p50", "serve.batch_size_mean",
               "serve.multi_job_batches", "serve.tier.cold",
               "serve.tier.memory", "serve.generator_lag_ms_max")


def _check_source(root: Path) -> None:
    import repro

    src = (root / "src").resolve()
    if src not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"repro imported from {repro.__file__}, not "
                         f"from {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    _check_source(root)
    import workloads

    args.tmp.mkdir(parents=True, exist_ok=True)
    clock = refclock.RefClock()
    recorder = None
    if args.trace:
        recorder = tracing.Recorder(args.tmp)
        recorder.install()
    ctx = workloads.RunContext(args.tmp, clock)
    workload_class = workloads.WORKLOADS[args.workload]
    started = time.perf_counter()
    workload = workload_class(args.seed, ctx)
    inputs_s = time.perf_counter() - started
    workload.start()
    setup_raw = time.perf_counter() - args.spawned_at
    # Each process scales its set-up by reference samples taken right
    # after it: samples from later in the run say less about the host's
    # speed during set-up.
    clock.sample(SETUP_SAMPLES)
    setup_s = setup_raw * clock.factor()

    if args.setup_only:
        workload.close()
        print(json.dumps({"raw": {"setup_s": setup_raw},
                          "metrics": {"setup_s": setup_s}}))
        return 0

    if workload_class.CORES > 1:
        clock.add_core()
    rounds = []
    run_started = time.perf_counter()
    factors = []   # each round's reference-clock factor
    while True:
        round_started = time.perf_counter()
        first_sample = len(clock.samples)
        rounds.append(workload.run_round())
        factors.append(clock.factor(first_sample))
        if len(rounds) == 1:
            # Peak RSS up to the end of the first round: later rounds
            # can only add allocator growth, and how many of them fit
            # depends on the program's speed.
            rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        round_s = time.perf_counter() - round_started
        elapsed = time.perf_counter() - run_started
        if elapsed + round_s > args.seconds:
            break
    run_ended = time.perf_counter()
    clock.close()

    late_failed = workload.check()
    worker_rss = workload.close()
    if late_failed is not None:
        for result, failed in zip(rounds, late_failed):
            result.failed += failed
        rounds[0].failures += getattr(workload, "failures", [])

    factor = clock.factor()
    raw_ops = [s for r in rounds for s in r.op_seconds]
    # The host's speed drifts within a run too: each round's timings
    # are scaled by the samples taken during it.
    ops = [s * f for r, f in zip(rounds, factors) for s in r.op_seconds]
    raw = {
        "wall_s": statistics.median(r.wall for r in rounds),
        "op_p50_ms": 1000 * statistics.median(raw_ops),
        "ops_per_s": statistics.median(r.throughput for r in rounds),
        "setup_s": setup_raw,
    }
    metrics = {
        "wall_s": statistics.median(
            r.wall * f for r, f in zip(rounds, factors)),
        "op_p50_ms": 1000 * statistics.median(ops),
        "ops_per_s": statistics.median(
            r.throughput / f for r, f in zip(rounds, factors)),
        "setup_s": setup_s,
        "peak_rss_mb": max(rss_mb, worker_rss),
    }

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(rounds),
        "attempted": workload.ops_per_round * len(rounds),
        "failed": sum(r.failed for r in rounds),
        "failures": [f for r in rounds for f in r.failures][:20],
        "digests": [r.digest for r in rounds],
        "op_samples": len(ops),
        "ref_factor": factor,
        "ref_samples": len(clock.samples),
        "metrics": metrics,
        "raw": raw,
    }
    if recorder is not None:
        # Scaled like the rounds' walls they are set against.
        report["layers"] = layer_metrics(
            recorder, (run_started, run_ended), rounds, workload,
            statistics.fmean(factors), inputs_s, metrics["wall_s"])
    print(json.dumps(report))
    return 0


def layer_metrics(recorder, window, rounds, workload, factor: float,
                  inputs_s: float, wall_s: float) -> dict[str, float]:
    """Per-round means of every layer's self time (scaled) and
    counts, over the timed rounds, this process and its workers."""
    from repro import api

    local_self = sum(recorder.totals(*window)[0].values())
    self_s, counts = recorder.totals(*window, workers=True)
    n = len(rounds)

    out: dict[str, float] = {}
    for metric, span in LAYER_TIMES.items():
        out[metric] = self_s[span] / n * factor
    for metric in LAYER_COUNTS:
        out[metric] = counts[metric] / n
    machine_s = self_s["machine"] * factor
    out["machine.insns_per_s"] = \
        counts["machine.host_insns"] / machine_s if machine_s else 0.0
    # The store the last round wrote (serve's one store holds the
    # translations of its set-up pass).
    cache = api.get_xlat_cache()
    out["dbt.xlat_cache.entries"] = cache.disk_usage()[0] if cache else 0

    enum = getattr(workload, "enum_counts", Counter())
    for name in ENUM_COUNTS:
        out[f"core.enum.{name}"] = enum[name] / n
    executed = enum["executions_enumerated"]
    out["core.enum.useful_ratio"] = \
        enum["consistent"] / executed if executed else 0.0
    memo = getattr(workload, "memo", Counter())
    out["core.behavior_memo.hits"] = memo["hits"] / n
    out["core.behavior_memo.misses"] = memo["misses"] / n

    serve = workload.layer_metrics()
    for name in SERVE_LAYER:
        value = serve.get(name, 0.0)
        out[name] = value * factor if name.endswith("_ms_p50") \
            or name.endswith("_ms_max") else value
    out["workloads.inputs_s"] = inputs_s * factor
    out["trace.wall_s"] = wall_s
    out["trace.unattributed_s"] = \
        (statistics.fmean(r.wall for r in rounds) - local_self / n) * factor
    return out


if __name__ == "__main__":
    sys.exit(main())
