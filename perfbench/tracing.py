"""The traced run: spans around each layer's public entry points.

Nothing here is part of the program under test.  :func:`install`
replaces a fixed list of functions and methods with wrappers that
record a span (name, start, end, parent span) and, for the engines'
``run`` methods, copy counts out of the returned ``RunResult``.  Spans
stay in memory; a worker process forked by ``multiprocessing`` (the
serve pool) starts from an empty recorder and writes its aggregate to
a file when it exits, which the parent reads after the worker has
ended.

A span's *self time* is its duration minus the durations of the spans
directly nested in it, so ``machine`` is ``Machine.run`` minus the
translations it triggers, and ``core.verifier`` is ``check_corpus``
minus the enumeration it waits for.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing.util
import os
import time
from collections import Counter
from pathlib import Path

#: Wrapped entry points: (module, attribute path, span name).
SPAN_POINTS: tuple[tuple[str, str, str], ...] = (
    ("repro.tcg.frontend_x86", "X86Frontend.translate_block",
     "tcg.frontend"),
    ("repro.tcg.optimizer", "constant_propagation", "tcg.opt.constprop"),
    ("repro.tcg.optimizer", "memory_access_elimination",
     "tcg.opt.memopt"),
    ("repro.tcg.optimizer", "merge_fences_pass", "tcg.opt.fence_merge"),
    ("repro.tcg.optimizer", "dead_code_elimination", "tcg.opt.deadcode"),
    ("repro.tcg.backend_arm", "ArmBackend.compile_block", "tcg.backend"),
    # The assembler as the engine calls it when installing a block.
    ("repro.dbt.engine", "assemble_arm", "isa.arm.assemble"),
    ("repro.dbt.xlat_cache", "XlatCache.key_for", "dbt.xlat_cache.key"),
    ("repro.dbt.xlat_cache", "XlatCache.get", "dbt.xlat_cache.get"),
    ("repro.dbt.xlat_cache", "XlatCache.put", "dbt.xlat_cache.put"),
    ("repro.machine.scheduler", "Machine.run", "machine"),
    ("repro.workloads.runner", "build_binary", "loader.build"),
    ("repro.workloads.casbench", "build_binary", "loader.build"),
    ("repro.core.dpor", "reduced_behaviors", "core.enum"),
    # behaviors() is imported by name into the verifier, so both
    # bindings are wrapped.
    ("repro.core.enumerate", "behaviors", "core.behaviors"),
    ("repro.core.verifier", "behaviors", "core.behaviors"),
    ("repro.core.verifier", "check_corpus", "core.verifier"),
    ("repro.core.verifier", "check_annotations", "core.verifier"),
)

#: Engine run methods whose RunResult supplies the layer counts.
COUNT_POINTS: tuple[tuple[str, str], ...] = (
    ("repro.dbt.engine", "DBTEngine.run"),
    ("repro.dbt.engine", "NativeRunner.run"),
)


def run_result_counts(result) -> dict[str, int]:
    """One ``RunResult``'s machine, dispatch, translation and optimizer
    counts."""
    stats, opt = result.stats, result.opt_stats
    return {
        "machine.host_insns": result.host_insns,
        "dbt.block_dispatches": stats.block_dispatches,
        "dbt.chained_dispatches": stats.chained_dispatches,
        "tcg.blocks": stats.xlat_misses,
        "tcg.guest_insns": stats.guest_insns_translated,
        "dbt.xlat_cache.hits": stats.xlat_hits,
        "dbt.xlat_cache.misses": stats.xlat_misses,
        "dbt.xlat_cache.disk_hits": stats.xlat_disk_hits,
        "tcg.opt.folded": opt.folded,
        "tcg.opt.mem_eliminated": opt.mem_eliminated,
        "tcg.opt.fences_merged": opt.fences_merged,
        "tcg.opt.dead_removed": opt.dead_removed,
    }


def totals(spans: list, counts: list, since: float,
           until: float) -> tuple[Counter, Counter]:
    """(self seconds by span name, counts) of the spans and count
    records that start within [since, until)."""
    nested = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            nested[parent] += end - start
    self_s: Counter = Counter()
    for index, (name, start, end, _) in enumerate(spans):
        if since <= start < until:
            self_s[name] += (end - start) - nested[index]
    summed: Counter = Counter()
    for at, record in counts:
        if since <= at < until:
            summed.update(record)
    return self_s, summed


class Recorder:
    """In-memory spans and counts of one process."""

    def __init__(self, dump_dir: Path) -> None:
        self.dump_dir = dump_dir
        self.spans: list[list] = []   # [name, start, end, parent]
        self.counts: list[tuple[float, dict]] = []   # (time, counts)
        self._stack: list[int] = []

    # -- recording -----------------------------------------------------
    def _span_wrapper(self, original, name: str):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = self._stack
            span = [name, time.perf_counter(), 0.0,
                    stack[-1] if stack else -1]
            stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
        return wrapper

    def _count_wrapper(self, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            self.counts.append((time.perf_counter(),
                                run_result_counts(result)))
            return result
        return wrapper

    def _patch(self, module_name: str, path: str, make) -> None:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        setattr(owner, attr, make(getattr(owner, attr)))

    def install(self) -> None:
        """Wrap every entry point and arrange for forked workers to
        record into a fresh recorder and dump it at exit.  A function
        bound under two names gets one wrapper per binding; each calls
        the original, so a call is recorded once."""
        for module_name, path, name in SPAN_POINTS:
            self._patch(module_name, path,
                        lambda o, n=name: self._span_wrapper(o, n))
        for module_name, path in COUNT_POINTS:
            self._patch(module_name, path, self._count_wrapper)
        multiprocessing.util.register_after_fork(self, Recorder._forked)

    # -- forked workers ------------------------------------------------
    def _forked(self) -> None:
        self.spans = []
        self.counts = []
        self._stack = []
        multiprocessing.util.Finalize(None, self._dump, exitpriority=100)

    def _dump(self) -> None:
        path = self.dump_dir / f"worker-{os.getpid()}.json"
        path.write_text(json.dumps({"spans": self.spans,
                                    "counts": self.counts}))

    def totals(self, since: float, until: float,
               workers: bool = False) -> tuple[Counter, Counter]:
        """(self seconds by span name, counts) recorded in [since,
        until) by this process and, with ``workers``, by every worker
        that has dumped (call that only after they have ended)."""
        self_s, counts = totals(self.spans, self.counts, since, until)
        if workers:
            for path in sorted(self.dump_dir.glob("worker-*.json")):
                payload = json.loads(path.read_text())
                worker_self, worker_counts = totals(
                    payload["spans"], payload["counts"], since, until)
                self_s.update(worker_self)
                counts.update(worker_counts)
        return self_s, counts
