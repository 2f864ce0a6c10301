"""The four workloads, each a set of operations repeated in rounds.

A workload is built once from the run's seed (its set-up), then runs
rounds until the run's time is up.  Every round performs exactly the
same operations on the same inputs, starting from empty translation
and behaviour caches, so the share of failed operations is the same in
every run and every round's simulated results hash alike.  Each
operation's output is checked against a reference the code under test
does not share; a failed check counts the operation as failed.

The program is driven as a library: ``repro.api`` for kernels, engines
and jobs, ``repro.core`` for the verifier and enumerator,
``repro.fuzz.generate`` for seeded inputs, ``repro.serve`` for the
server and client.  Functions the traced run wraps are called through
their modules, so the wrappers see every call.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
import random
import resource
import shutil
import statistics
import struct
import threading
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro import api
from repro.core import enumerate as core_enum
from repro.core import verifier
from repro.core.corpus_large import FIVE_THREAD_CORPUS
from repro.core.events import Arch
from repro.core.litmus_library import TCG_CORPUS, X86_CORPUS
from repro.core.models import MODEL_BY_NAME
from repro.core.program import If
from repro.dbt import guest_reg, xlat_cache
from repro.dbt.runtime import STACK_BASE, STACK_SIZE, guest_flag
from repro.fuzz.generate import gen_litmus, gen_x86_block
from repro.isa.x86 import CpuState, X86Interpreter, assemble
from repro.isa.x86.insns import GPR
from repro.serve import ReproServer, ServeClient, ServeConfig


@dataclass
class RoundResult:
    """What one round measured.  ``op_seconds`` holds one duration per
    operation (for serve, per open-loop request, from its due time)."""

    op_seconds: list[float]
    failed: int
    #: Seconds of the round's timed part.
    wall: float
    #: Operations per second the round sustained.
    throughput: float
    #: Digest of the round's simulated results.
    digest: str
    failures: list[str] = field(default_factory=list)


class Workload:
    """Defaults for the workloads that need no start-up or tear-down
    beyond building their inputs."""

    #: Cores the work keeps busy.  The reference loop tracks the speed
    #: of the core it runs on, so with two it also runs in a helper
    #: process, side by side.
    CORES = 1

    def start(self) -> None:
        pass

    def check(self) -> list[int] | None:
        """Failed operations per round found after the timed rounds,
        or None when every check ran inside the rounds."""
        return None

    def close(self) -> float:
        """Release resources; returns the peak RSS in MB of any child
        process (0 when there is none)."""
        return 0.0

    def layer_metrics(self) -> dict[str, float]:
        return {}


class RunContext:
    """Per-run services: fresh cache directories and the reference
    clock interleaved between operations."""

    def __init__(self, tmp: Path, clock) -> None:
        self.tmp = tmp
        self.clock = clock
        self._rounds = 0
        #: Seconds of each timed operation of the current round.
        self.ops: list[float] = []

    def op(self, seconds: float) -> None:
        """Record one timed operation and keep the reference clock
        paced with the work."""
        self.ops.append(seconds)
        self.clock.pace(seconds)

    def round_result(self, failed: int, digest: list,
                     failures: list[str]) -> RoundResult:
        """The round of recorded operations, timed by their sum."""
        wall = sum(self.ops)
        return RoundResult(self.ops, failed, wall, len(self.ops) / wall,
                           _digest(digest), failures)

    def fresh_caches(self) -> None:
        """Point the translation cache at a new empty directory and drop
        both in-process memories: the behaviour memo, and the
        translations the earlier rounds' stores keep in memory (each
        directory has its own store, and the process keeps every store
        it made), so memory use does not grow with the rounds."""
        old = self.tmp / f"round-{self._rounds}"
        shutil.rmtree(old, ignore_errors=True)
        self._rounds += 1
        fresh = self.tmp / f"round-{self._rounds}"
        os.environ["REPRO_XLAT_CACHE"] = str(fresh / "xlat")
        core_enum.clear_behavior_cache()
        xlat_cache.reset_memory()
        self.ops = []


def _digest(items) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


def _behaviors(behs) -> str:
    """Digest of a behaviour set, independent of set order."""
    return _digest(sorted(sorted(b) for b in behs))


def _timed(fn, *args, **kwargs):
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started


# ----------------------------------------------------------------------
# fig12-sim
# ----------------------------------------------------------------------
class Fig12Sim(Workload):
    """Three Figure 12 kernels x native, qemu and risotto."""

    name = "fig12-sim"
    KERNELS = ("freqmine", "blackscholes", "histogram")
    VARIANTS = ("native", "qemu", "risotto")
    #: Half the Figure 12 sweep's 400, so that a run holds several
    #: rounds; translation stays under 3% of the time.
    ITERATIONS = 200

    def __init__(self, seed: int, ctx: RunContext) -> None:
        self.ctx = ctx
        self.seed = seed
        self.specs = [replace(api.SPEC_BY_NAME[name],
                              iterations=self.ITERATIONS)
                      for name in self.KERNELS]
        self.ops_per_round = len(self.specs) * len(self.VARIANTS)

    def run_round(self) -> RoundResult:
        self.ctx.fresh_caches()
        failures, digest = [], []
        for spec in self.specs:
            cells = {}
            for variant in self.VARIANTS:
                out, seconds = _timed(api.run_kernel, spec,
                                      variant=variant, seed=self.seed)
                self.ctx.op(seconds)
                cells[variant] = out.result
                res = out.result
                digest.append((spec.name, variant, res.elapsed_cycles,
                               res.fence_cycles, out.checksum,
                               sorted(res.fence_cycles_by_origin.items())))
            failures += self._check(spec.name, cells)
        failed = len({f.split(":")[0] for f in failures})
        return self.ctx.round_result(failed, digest, failures)

    @staticmethod
    def _check(kernel: str, cells: dict) -> list[str]:
        """Failures as ``"<kernel>/<variant>: reason"``."""
        failures = []
        native = cells["native"].output
        for variant, res in cells.items():
            cell = f"{kernel}/{variant}"
            if res.exit_code != 0:
                failures.append(f"{cell}: exit code {res.exit_code}")
            if variant != "native" and res.output != native:
                failures.append(f"{cell}: checksum {res.output} != "
                                f"native {native}")
            if sum(res.fence_cycles_by_origin.values()) \
                    != res.fence_cycles:
                failures.append(f"{cell}: fence cycles by origin do "
                                f"not sum to {res.fence_cycles}")
        # The paper's minimal-fence claim.
        if cells["risotto"].fence_cycles > cells["qemu"].fence_cycles:
            failures.append(
                f"{kernel}/risotto: fence cycles "
                f"{cells['risotto'].fence_cycles} > qemu's "
                f"{cells['qemu'].fence_cycles}")
        return failures


# ----------------------------------------------------------------------
# xlat-blocks
# ----------------------------------------------------------------------
class _RefMemory:
    """Flat memory for the reference interpreter: code bytes plus
    sparse data words."""

    def __init__(self, code: bytes, base: int) -> None:
        self.words: dict[int, int] = {}
        self.code, self.base = code, base

    def load_word(self, addr: int) -> int:
        return self.words.get(addr, 0)

    def store_word(self, addr: int, value: int) -> None:
        self.words[addr] = value & ((1 << 64) - 1)

    def read_bytes(self, addr: int, count: int) -> bytes:
        off = addr - self.base
        return self.code[off:off + count]


class XlatBlocks(Workload):
    """Generated x86 blocks, each translated and run once per variant
    on a 1-core engine, checked against the x86 reference
    interpreter."""

    name = "xlat-blocks"
    BLOCKS = 150
    VARIANTS = ("qemu", "risotto")
    CODE_BASE = 0x400000

    def __init__(self, seed: int, ctx: RunContext) -> None:
        self.ctx = ctx
        rng = random.Random(seed)
        self.blocks = []
        # The guest rsp the runtime gives core 0's main thread.
        rsp = STACK_BASE + STACK_SIZE - 0x100 - 8
        for _ in range(self.BLOCKS):
            assembly = assemble(gen_x86_block(rng) + "\n    hlt",
                                base=self.CODE_BASE)
            memory = _RefMemory(assembly.code, assembly.base)
            state = CpuState()
            state.rip = assembly.base
            state.regs["rsp"] = rsp
            X86Interpreter(memory).run(state)
            self.blocks.append((assembly, state, memory.words))
        self.ops_per_round = len(self.blocks) * len(self.VARIANTS)

    def run_round(self) -> RoundResult:
        self.ctx.fresh_caches()
        failures, digest = [], []
        failed = 0
        for index, (assembly, state, words) in enumerate(self.blocks):
            for variant in self.VARIANTS:
                started = time.perf_counter()
                engine = api.make_engine(variant=variant, n_cores=1)
                engine.load_image(assembly.base, assembly.code)
                engine.run(assembly.base)
                self.ctx.op(time.perf_counter() - started)
                final = self._final_state(engine, words)
                digest.append(final)
                bad = self._compare(final, state, words)
                if bad:
                    failed += 1
                    failures.append(f"block {index}/{variant}: {bad}")
        return self.ctx.round_result(failed, digest, failures)

    @staticmethod
    def _final_state(engine, words: dict) -> tuple:
        core = engine.machine.core(0)
        regs = tuple(guest_reg(core, reg) for reg in GPR)
        flags = tuple(bool(guest_flag(core, f))
                      for f in ("zf", "sf", "cf", "of"))
        memory = tuple(engine.machine.memory.load_word(addr)
                       for addr in sorted(words))
        return regs, flags, memory

    @staticmethod
    def _compare(final: tuple, state: CpuState, words: dict) -> str:
        regs, flags, memory = final
        for reg, got in zip(GPR, regs):
            if got != state.regs[reg]:
                return f"{reg}={got:#x}, reference {state.regs[reg]:#x}"
        for name, got in zip(("zf", "sf", "cf", "of"), flags):
            if got != state.flags[name]:
                return f"flag {name}={got}, reference {state.flags[name]}"
        for (addr, want), got in zip(sorted(words.items()), memory):
            if got != want:
                return f"[{addr:#x}]={got:#x}, reference {want:#x}"
        return ""


# ----------------------------------------------------------------------
# verify-theorem1
# ----------------------------------------------------------------------
def _op_count(ops) -> int:
    count = 0
    for op in ops:
        count += 1
        if isinstance(op, If):
            count += _op_count(op.then_ops) + _op_count(op.else_ops)
    return count


class VerifyTheorem1(Workload):
    """The scheme gate, the corpus annotations, the 5-thread corpus
    under every model and seeded litmus programs under SC and x86-TSO.
    One operation is one verdict."""

    name = "verify-theorem1"
    #: Generated programs per size (operations, nested ones included).
    #: Equal counts per size make the cost of the generated set depend
    #: on the seed only through the shapes drawn, not through how many
    #: large programs the draw happened to hold; programs larger than
    #: 8 operations are left out so no single one decides a round's
    #: time (see the README).
    PER_SIZE = 40
    SIZES = range(2, 9)
    #: The models every 5-thread program runs under.
    FIVE_THREAD_MODELS = ("sc", "x86-tso", "tcg-ir", "arm-cats",
                          "arm-cats-original")
    #: Inclusions that must hold on every 5-thread program, as (weaker
    #: model, stronger model).
    FIVE_THREAD_ORDER = (("sc", "x86-tso"), ("x86-tso", "tcg-ir"),
                         ("x86-tso", "arm-cats"),
                         ("arm-cats", "arm-cats-original"))
    #: The paper's QEMU bug: rmw1al is broken on MPQ and nothing else.
    QEMU_BROKEN = ("MPQ",)

    def __init__(self, seed: int, ctx: RunContext) -> None:
        self.ctx = ctx
        rng = random.Random(seed)
        by_size: dict[int, list] = {size: [] for size in self.SIZES}
        drawn = 0
        while any(len(v) < self.PER_SIZE for v in by_size.values()):
            program = gen_litmus(rng, Arch.X86, name=f"gen{drawn}")
            drawn += 1
            size = sum(_op_count(t) for t in program.threads)
            if len(by_size.get(size, [None] * self.PER_SIZE)) \
                    < self.PER_SIZE:
                by_size[size].append(program)
        generated = [p for size in self.SIZES for p in by_size[size]]
        schemes = [f"most-{s.benchmark}-{s.rmw_lowering}"
                   for s in api.scheme_grid()]
        annotated = X86_CORPUS + TCG_CORPUS + FIVE_THREAD_CORPUS
        # One verdict per task.  They run in a seeded order, the same
        # in every round: each kind of verdict is then spread over the
        # whole round, so a slow spell of the host does not fall on
        # one kind alone (run in blocks, the generated programs' ~3 ms
        # verdicts, which set op_p50_ms, shared one ~2 s window).
        self.tasks = ([("scheme", name) for name in schemes]
                      + [("annotations", test) for test in annotated]
                      + [("five", test, model)
                         for test in FIVE_THREAD_CORPUS
                         for model in self.FIVE_THREAD_MODELS]
                      + [("generated", program) for program in generated])
        rng.shuffle(self.tasks)
        self.ops_per_round = len(self.tasks)
        self.enum_counts: Counter = Counter()
        self.memo: Counter = Counter()

    @staticmethod
    def _verdict(task):
        kind = task[0]
        x86 = MODEL_BY_NAME["x86-tso"]
        if kind == "scheme":
            return verifier.check_corpus(
                X86_CORPUS, api.SCHEME_MAPPINGS[task[1]], x86,
                MODEL_BY_NAME["arm-cats"])
        if kind == "annotations":
            test = task[1]
            model = {Arch.X86: x86, Arch.ARM: MODEL_BY_NAME["arm-cats"],
                     Arch.TCG: MODEL_BY_NAME["tcg-ir"]}[test.program.arch]
            return verifier.check_annotations(test, model)
        if kind == "five":
            return core_enum.behaviors(task[1].program,
                                       MODEL_BY_NAME[task[2]])
        program = task[1]
        return (core_enum.behaviors(program, MODEL_BY_NAME["sc"]),
                core_enum.behaviors(program, x86))

    def run_round(self) -> RoundResult:
        self.ctx.fresh_caches()
        enum_before = api.enumeration_stats()
        outputs = []
        for task in self.tasks:
            out, seconds = _timed(self._verdict, task)
            self.ctx.op(seconds)
            outputs.append(out)

        failures, digest = [], []
        five: dict[tuple[str, str], frozenset] = {}
        for task, out in zip(self.tasks, outputs):
            kind = task[0]
            if kind == "scheme":
                name = task[1]
                broken = tuple(v.test_name for v in out.verdicts
                               if not v.ok)
                digest.append((name, out.ok, broken))
                expected = api.SCHEME_EXPECTED[name]
                if out.ok != expected:
                    failures.append(f"{name}: sound={out.ok}, expected "
                                    f"{expected}")
                elif name == "most-qemu-rmw1al" \
                        and broken != self.QEMU_BROKEN:
                    failures.append(f"{name}: broken on {broken}, "
                                    f"expected {self.QEMU_BROKEN}")
            elif kind == "annotations":
                digest.append((task[1].name, tuple(out)))
                if out:
                    failures.append(f"{task[1].name}: {out}")
            elif kind == "five":
                five[task[1].name, task[2]] = out
                digest.append((task[1].name, task[2], _behaviors(out)))
            else:
                sc_behs, tso_behs = out
                digest.append((task[1].name, _behaviors(sc_behs),
                               _behaviors(tso_behs)))
                if not sc_behs <= tso_behs:
                    failures.append(f"{task[1].name}: sc not within "
                                    f"x86-tso")
        for test in FIVE_THREAD_CORPUS:
            for weaker, stronger in self.FIVE_THREAD_ORDER:
                if not five[test.name, weaker] <= five[test.name, stronger]:
                    failures.append(f"{test.name}: {weaker} not within "
                                    f"{stronger}")

        enum_run = api.enumeration_stats()
        delta = {name: getattr(enum_run, name) - getattr(enum_before, name)
                 for name in vars(enum_run)}
        self.enum_counts.update(delta)
        memo = core_enum.behavior_cache_stats()
        self.memo.update({"hits": memo.hits, "misses": memo.misses})
        digest.append(sorted(delta.items()))
        return self.ctx.round_result(len(failures), digest, failures)


# ----------------------------------------------------------------------
# serve-poisson
# ----------------------------------------------------------------------
def _bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def _unbits(b: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", b & (2**64 - 1)))[0]


#: Small kernels: Figure 12 mixes at serve request size.
_SERVE_KERNELS = (
    api.KernelSpec(name="bench-hist", loads=2, stores=1, alu=4, fp=0,
                   iterations=60, threads=2, working_set=64),
    api.KernelSpec(name="bench-linreg", loads=2, stores=0, alu=2, fp=2,
                   iterations=60, threads=2, working_set=64),
    api.KernelSpec(name="bench-stream", loads=1, stores=1, alu=1, fp=0,
                   iterations=80, threads=2, working_set=64),
)
_SERVE_CAS = (api.CasConfig(threads=2, variables=2, attempts=60),
              api.CasConfig(threads=2, variables=1, attempts=60))
#: libm functions with the argument range their seeded arguments are
#: drawn from: where the guest's series agree with Python's math to a
#: relative 1e-6 (sin and log have no range reduction).
_LIBM = (("sqrt", 0.01, 1000.0), ("sin", -1.5, 1.5), ("log", 0.7, 1.5))
#: One fixed request per round outside that range, so the fault shows:
#: the guest's log(8.0) is 2.0554 where math gives 2.0794, and the
#: request fails in every round of every run.
_LIBM_OUTSIDE = ("log", 8.0)
#: Calls per libm job.  The guest XOR-accumulates every call's result,
#: so an even count cancels to 0; an odd one makes the checksum the
#: result.
_LIBM_CALLS = 11


class ServePoisson(Workload):
    """One in-process server with a one-worker pool, one client
    connection: an open loop with Poisson arrivals, then a closed
    loop at fixed depth, per round."""

    name = "serve-poisson"
    CORES = 2
    VARIANTS = ("qemu", "risotto")
    OPEN_REQUESTS = 48
    OPEN_RATE = 8.0         # requests per second, about 1/3 of capacity
    CLOSED_REQUESTS = 80
    CLOSED_DEPTH = 4
    #: The closed loop's capacity is the median over windows of this
    #: many completions, so one slow spell of the host moves it less.
    CLOSED_WINDOW = 20
    MIX = (0.4, 0.4, 0.2)   # kernel, libm, cas

    def __init__(self, seed: int, ctx: RunContext) -> None:
        self.ctx = ctx
        rng = random.Random(seed)
        kernels = [api.kernel_job(spec, variant=v,
                                  seed=rng.randrange(1, 999))
                   for spec in _SERVE_KERNELS for v in self.VARIANTS]
        libm = []
        for fn, low, high in _LIBM:
            for _ in range(2):
                x = round(rng.uniform(low, high), 6)
                libm += [api.library_job(
                    fn, (_bits(x),), _LIBM_CALLS, variant=v,
                    library="libm", seed=rng.randrange(1, 999))
                    for v in self.VARIANTS]
        cas = [api.cas_job(config, variant=v, seed=rng.randrange(1, 999))
               for config in _SERVE_CAS for v in self.VARIANTS]
        by_kind = {"kernel": kernels, "libm": libm, "cas": cas}
        self.distinct = kernels + libm + cas

        def draw(count: int) -> list:
            """``count`` jobs in the MIX proportions, each kind's jobs
            taken in turn from a seeded order, then shuffled: seeds
            differ in arguments, machine seeds and order, not in how
            much of each kind of work they offer."""
            jobs = []
            for kind, weight in zip(("kernel", "libm", "cas"), self.MIX):
                order = rng.sample(by_kind[kind], len(by_kind[kind]))
                jobs += [order[i % len(order)]
                         for i in range(round(weight * count))]
            jobs = (jobs + kernels * count)[:count]
            rng.shuffle(jobs)
            return jobs

        self.open_jobs = draw(self.OPEN_REQUESTS)
        # Exponential gaps scaled so the mean rate is exactly OPEN_RATE:
        # Poisson-like bursts, the same offered load for every seed.
        gaps = [rng.expovariate(self.OPEN_RATE) for _ in self.open_jobs]
        scale = len(gaps) / self.OPEN_RATE / sum(gaps)
        self.open_due, at = [], 0.0
        for gap in gaps:
            at += gap * scale
            self.open_due.append(at)
        outside = api.library_job(
            _LIBM_OUTSIDE[0], (_bits(_LIBM_OUTSIDE[1]),), 1,
            variant="risotto", library="libm")
        self.distinct.append(outside)
        self.closed_jobs = draw(self.CLOSED_REQUESTS - 1) + [outside]
        self.ops_per_round = self.OPEN_REQUESTS + self.CLOSED_REQUESTS
        # Serve-layer observations over every round (open loop only
        # for transport and lag; every request for the rest).
        self.layer: dict[str, list] = {
            "queue": [], "exec": [], "transport": [], "batch": [],
            "lag": [], "tier": []}
        self.results: list = []

    def start(self) -> None:
        """Server and client up until the first ping, then one pass
        over the distinct jobs (part of set-up): the pool worker
        starts, and the rounds find every translation in its memory
        tier, the steady state of a long-running server."""
        self.ctx.fresh_caches()
        self.server = ReproServer(ServeConfig(port=0, workers=1))
        host, port = self.server.start_background()
        self.client = ServeClient(host, port)
        if not self.client.ping():
            raise RuntimeError("server did not answer the first ping")
        self.client.submit_many(self.distinct)

    # -- phases --------------------------------------------------------
    def _open_loop(self, jobs: list) -> tuple[list, list, float, float]:
        """Send each job at its due time; a reader thread collects the
        responses, which come back in request order."""
        client = self.client
        received: list = []

        def reader() -> None:
            for _ in jobs:
                try:
                    result = client._result_of(client._recv())
                except Exception as exc:  # noqa: BLE001 - counted lost
                    received.append((time.perf_counter(), exc))
                    return
                received.append((time.perf_counter(), result))

        thread = threading.Thread(target=reader, name="bench-reader")
        start = time.perf_counter() + 0.01
        thread.start()
        lags = []
        for job, due in zip(jobs, self.open_due):
            delay = start + due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            lags.append(time.perf_counter() - (start + due))
            client._send({"op": "submit", "job": job.to_json()})
        thread.join(timeout=120)
        latencies = [at - (start + due) for (at, _), due
                     in zip(received, self.open_due)]
        results = [r for _, r in received]
        elapsed = (received[-1][0] if received
                   else time.perf_counter()) - start
        return results, latencies, max(lags), elapsed

    def _closed_loop(self, jobs: list) -> tuple[list, list]:
        """Keep CLOSED_DEPTH requests in flight; returns the results
        and the duration of each window of CLOSED_WINDOW completions."""
        client = self.client
        results, windows = [], []
        started = time.perf_counter()
        sent = 0
        for job in jobs[:self.CLOSED_DEPTH]:
            client._send({"op": "submit", "job": job.to_json()})
            sent += 1
        while len(results) < len(jobs):
            results.append(client._result_of(client._recv()))
            if len(results) % self.CLOSED_WINDOW == 0:
                now = time.perf_counter()
                windows.append(now - started)
                started = now
            if sent < len(jobs):
                client._send({"op": "submit", "job": jobs[sent].to_json()})
                sent += 1
        return results, windows

    def run_round(self) -> RoundResult:
        open_results, latencies, lag, open_s = self._open_loop(
            self.open_jobs)
        self.ctx.clock.pace(open_s)
        closed_results, windows = self._closed_loop(self.closed_jobs)
        self.ctx.clock.pace(sum(windows))
        jobs = self.open_jobs + self.closed_jobs
        results = open_results + closed_results
        self.results.append(results)
        for result, latency in zip(open_results, latencies):
            if isinstance(result, api.JobResult) and result.ok:
                self.layer["transport"].append(
                    latency - result.queue_seconds - result.wall_seconds)
        for result in results:
            if isinstance(result, api.JobResult) and result.ok:
                self.layer["queue"].append(result.queue_seconds)
                self.layer["exec"].append(result.wall_seconds)
                self.layer["batch"].append(result.batch_size)
                self.layer["tier"].append(result.cache_tier)
        self.layer["lag"].append(lag)
        digest = [(job.benchmark, job.variant, r.cycles, r.fence_cycles,
                   r.checksum) if isinstance(r, api.JobResult) else None
                  for job, r in zip(jobs, results)]
        # The open loop's length is set by its schedule; the closed
        # loop's is the time the server needs for a fixed set of jobs,
        # taken as its median window times the number of windows.
        window = statistics.median(windows)
        return RoundResult(latencies, 0, window * len(windows),
                           self.CLOSED_WINDOW / window, _digest(digest))

    # -- checks, after the timed rounds --------------------------------
    def check(self) -> list[int]:
        """Failed requests per round, against references computed in
        this process: api.submit of the same job, the Arm-native build
        for kernel and CAS checksums, Python's math for libm."""
        reference = {}
        for job in self.distinct:
            reference[job] = api.submit(job)
        native = {}
        for spec in _SERVE_KERNELS:
            native[spec.name] = api.run_kernel(spec, variant="native")
        for config in _SERVE_CAS:
            native[config.label] = api.run_cas_benchmark(
                config, variant="native")
        failed_per_round = []
        self.failures: list[str] = []
        jobs = self.open_jobs + self.closed_jobs
        for round_results in self.results:
            failed = len(jobs) - len(round_results)   # lost responses
            for job, result in zip(jobs, round_results):
                problem = self._check_one(job, result, reference, native)
                if problem:
                    failed += 1
                    self.failures.append(
                        f"{job.benchmark}/{job.variant}: {problem}")
            failed_per_round.append(failed)
        return failed_per_round

    @staticmethod
    def _check_one(job, result, reference, native) -> str:
        if not isinstance(result, api.JobResult):
            return f"no response ({result})"
        if not result.ok:
            return f"error {result.error}"
        ref = reference[job]
        served = (result.cycles, result.fence_cycles, result.total_cycles,
                  result.checksum, result.exit_code)
        local = (ref.cycles, ref.fence_cycles, ref.total_cycles,
                 ref.checksum, ref.exit_code)
        if served != local:
            return f"served {served} != api.submit {local}"
        if result.exit_code != 0:
            return f"exit code {result.exit_code}"
        if job.kind == "library":
            x = _unbits(job.args[0])
            want = getattr(math, job.function)(x)
            got = _unbits(result.checksum)
            if not math.isclose(got, want, rel_tol=1e-6):
                return f"{job.function}({x}) = {got}, math gives {want}"
        else:
            key = job.benchmark if job.kind == "kernel" else job.cas.label
            if result.checksum != native[key].checksum:
                return (f"checksum {result.checksum} != native "
                        f"{native[key].checksum}")
        return ""

    def close(self) -> float:
        """Stop the server and wait for the pool worker to end;
        returns the worker's peak RSS in MB."""
        self.client.close()
        self.server.close()
        deadline = time.monotonic() + 30
        while multiprocessing.active_children():
            if time.monotonic() > deadline:
                for child in multiprocessing.active_children():
                    child.terminate()
                    child.join(timeout=5)
                break
            time.sleep(0.05)
        return resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def layer_metrics(self) -> dict[str, float]:
        lay = self.layer
        batches = lay["batch"]
        tiers = Counter(lay["tier"])
        rounds = max(1, len(self.results))
        return {
            "serve.queue_ms_p50": 1000 * statistics.median(lay["queue"]),
            "serve.exec_ms_p50": 1000 * statistics.median(lay["exec"]),
            "serve.transport_ms_p50":
                1000 * statistics.median(lay["transport"]),
            "serve.batch_size_mean": statistics.fmean(batches),
            # Each job of a k-job batch reports k, so k such reports
            # make one batch.
            "serve.multi_job_batches":
                sum(1 / b for b in batches if b > 1) / rounds,
            "serve.tier.cold": tiers["cold"] / rounds,
            "serve.tier.memory": tiers["memory"] / rounds,
            "serve.generator_lag_ms_max": 1000 * max(lay["lag"]),
        }


WORKLOADS = {w.name: w for w in (Fig12Sim, XlatBlocks, VerifyTheorem1,
                                  ServePoisson)}
