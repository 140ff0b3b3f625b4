"""The four Protego workloads, their output gates, and their traced runs.

Every workload is a closed loop driven through the public API:

* the three fleet workloads hand a generated ``FleetConfig`` (per-shard
  schedule, schedule CRC recorded) to ``FleetEngine`` under a
  ``HarnessClock(time.perf_counter_ns)``; one *pass* builds fresh
  shards and calls ``run()``;
* ``redteam-sweep`` hands ``(seed, n)`` to ``repro.redteam.run_battery``
  (two pool workers) for throughput, then replays the same scenarios
  serially with per-operation timers for the latency figures.

Each pass is checked before it counts; a pass that fails its gate is
counted as failed and its timings are dropped. See README.md for why
each workload exists and which layer metric should move which
end-to-end metric.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import multiprocessing.pool
import statistics
import time
import zlib
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import repro.core.build
import repro.fleet.shard
import repro.redteam.battery as battery
from repro.core.system import System
from repro.fleet import (
    PER_SHARD,
    FleetConfig,
    FleetEngine,
    FleetStats,
    HarnessClock,
)
from repro.fleet.stats import LatencyLedger
from repro.redteam import redteam_plan, run_battery, run_scenario_battery
from repro.scenarios.generator import generate_scenario

from spans import (
    CounterLedger,
    Tracer,
    check_algebra,
    instrument_system,
    patched,
    system_factory,
)

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("sessions_per_s", "1/s"),
    ("scenarios_per_s", "1/s"),
    ("stat_p50_us", "us"),
    ("stat_p99_us", "us"),
    ("open_p50_us", "us"),
    ("write_p50_us", "us"),
    ("send_p50_us", "us"),
    ("login_p50_ms", "ms"),
    ("login_p95_ms", "ms"),
    ("sudo_p50_ms", "ms"),
    ("passwd_p50_ms", "ms"),
    ("session_ok_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Latency metrics: name -> (operation, percentile, ns per unit).
LATENCIES: Dict[str, Tuple[str, float, float]] = {
    "stat_p50_us": ("stat", 0.50, 1e3),
    "stat_p99_us": ("stat", 0.99, 1e3),
    "open_p50_us": ("open", 0.50, 1e3),
    "write_p50_us": ("write", 0.50, 1e3),
    "send_p50_us": ("send", 0.50, 1e3),
    "login_p50_ms": ("login", 0.50, 1e6),
    "login_p95_ms": ("login", 0.95, 1e6),
    "sudo_p50_ms": ("sudo", 0.50, 1e6),
    "passwd_p50_ms": ("passwd", 0.50, 1e6),
}

#: A p99 is reported only with at least ten samples beyond it.
P99_MIN_SAMPLES = 1000

#: (name, unit) of every per-layer metric the traced run emits for every
#: workload: the layers all of them enter (``BENCHMARK.json``'s list).
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("engine.self_s", "s"),
    ("syscalls.stat.calls", "count"), ("syscalls.stat.self_s", "s"),
    ("syscalls.open.calls", "count"), ("syscalls.open.self_s", "s"),
    ("syscalls.close.calls", "count"), ("syscalls.close.self_s", "s"),
    ("syscalls.execve.calls", "count"), ("syscalls.execve.self_s", "s"),
    ("syscalls.other.calls", "count"), ("syscalls.other.self_s", "s"),
    ("entry.mask_hits", "count"), ("entry.revalidations", "count"),
    ("entry.rejections", "count"),
    ("fastpath.lookups", "count"), ("fastpath.hit_ratio", "ratio"),
    ("fastpath.stale_evictions", "count"),
    ("fastpath.invalidations", "count"),
    ("fastpath.put.calls", "count"), ("fastpath.put.self_s", "s"),
    ("fastpath.size", "count"),
    ("vfs.lookup.calls", "count"), ("vfs.lookup.self_s", "s"),
    ("dcache.hit_ratio", "ratio"), ("dcache.invalidations", "count"),
    ("security.check.calls", "count"), ("security.check.self_s", "s"),
    ("security.decision_hit_ratio", "ratio"),
    ("security.invalidate_object.calls", "count"),
    ("security.invalidate_object.self_s", "s"),
    ("security.flushes", "count"),
    ("lsm.calls", "count"), ("lsm.self_s", "s"), ("lsm.denials", "count"),
    ("audit.appended", "count"), ("audit.dropped", "count"),
    ("audit.lost", "count"),
    ("net.sendto.calls", "count"), ("net.sendto.self_s", "s"),
    ("netfilter.flow_hit_ratio", "ratio"),
    ("session.login.calls", "count"), ("session.login.s", "s"),
    ("userspace.run.calls", "count"), ("userspace.run.s", "s"),
    ("daemon.sync.calls", "count"), ("daemon.sync.self_s", "s"),
    ("generations.bumps.mount", "count"),
    ("generations.bumps.policy", "count"),
    ("generations.bumps.cred", "count"),
    ("build.systems", "count"), ("build.system_s", "s"),
    ("trace.overhead_ratio", "ratio"), ("trace.spans", "count"),
    ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
)

#: Per-layer metrics of layers only one kind of workload enters. The
#: traced run prints them and writes them to its result file; they stay
#: out of the emitted metrics, where they would read 0 on every run of
#: the other workloads.
FLEET_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("engine.steps", "count"),
    ("stats.report.self_s", "s"), ("stats.merge.self_s", "s"),
)
SWEEP_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("generator.self_s", "s"), ("redteam.surface.self_s", "s"),
    ("redteam.techniques.self_s", "s"), ("redteam.chains", "count"),
    ("pool.wall_s", "s"), ("pool.chunks", "count"), ("pool.busy_s", "s"),
    ("pool.overhead_s", "s"),
)

#: Span names whose *self* time is reported as ``<name>.self_s``.
SELF_TIMED = ("syscalls.stat", "syscalls.open", "syscalls.close",
              "syscalls.execve", "syscalls.other", "fastpath.put",
              "vfs.lookup", "security.check", "security.invalidate_object",
              "lsm", "net.sendto", "daemon.sync", "stats.report",
              "stats.merge", "generator", "redteam.surface",
              "redteam.techniques")

#: Span names whose *inclusive* time is reported as ``<name>.s``.
INCLUSIVE_TIMED = ("session.login", "userspace.run")

SWEEP_WORKERS = 2


@contextlib.contextmanager
def gc_held() -> Iterator[None]:
    """Collect, then keep the cyclic collector off for the block."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


@dataclasses.dataclass
class Sample:
    """One measured pass."""

    ok: bool
    attempted: int
    failed: int
    #: This pass's figures (throughputs, latency percentiles).
    values: Dict[str, float]
    #: This pass's latency ledgers by operation (ns); the run merges them.
    ledgers: Dict[str, LatencyLedger]
    note: str = ""


@dataclasses.dataclass
class TraceResult:
    """One traced run: every per-layer metric, the spans behind them,
    and whatever failed its checks."""

    metrics: Dict[str, float]
    #: (name, unit) of the metrics only this kind of workload has.
    own_layers: Tuple[Tuple[str, str], ...]
    tracer: Tracer
    problems: List[str]
    attempted: int
    fingerprint: str


# ----------------------------------------------------------------------
# Fleet workloads
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class FleetWorkload:
    name: str
    sessions: int
    shards: int
    mix: Optional[Tuple[Tuple[str, int], ...]] = None
    bookkeeping_interval: int = 1024

    def config(self, seed: int, scale: float = 1.0) -> FleetConfig:
        return FleetConfig(
            sessions=scaled(self.sessions, scale), shards=self.shards,
            seed=seed, schedule=PER_SHARD, record_schedule=True,
            mix=dict(self.mix) if self.mix else None,
            bookkeeping_interval=self.bookkeeping_interval)

    def setup(self, seed: int, scale: float = 1.0) -> FleetEngine:
        """What ``setup_s`` times after the imports: shard construction."""
        return FleetEngine(self.config(seed, scale),
                           clock=HarnessClock(time.perf_counter_ns))

    # -- one measured pass ---------------------------------------------
    def run_pass(self, engine: FleetEngine,
                 setup_s: float) -> Tuple[Sample, dict]:
        """Run the engine :meth:`setup` built. A fleet *scenario* is the
        set-up, the run and the output check together."""
        config = engine.config
        began = time.perf_counter_ns()
        with gc_held():
            start = time.perf_counter_ns()
            stats = engine.run()
            run_ns = time.perf_counter_ns() - start
        comparable = stats.comparable()
        ok, note = fleet_gate(stats, config)
        scenario_s = setup_s + (time.perf_counter_ns() - began) / 1e9
        values = {
            "sessions_per_s": stats.completed / (run_ns / 1e9),
            "scenarios_per_s": 1 / scenario_s,
        }
        values.update(latency_values(stats.op_ledgers))
        sample = Sample(ok, config.sessions,
                        stats.failed if ok else config.sessions,
                        values, dict(stats.op_ledgers), note)
        return sample, comparable

    # -- the traced run ------------------------------------------------
    def trace(self, seed: int, scale: float) -> "TraceResult":
        config = self.config(seed, scale)
        problems: List[str] = []

        # An untimed warm-up, so both timed runs find the process-wide
        # provisioning and parse memos warm.
        FleetEngine(config).run()
        with gc_held():
            start = time.perf_counter_ns()
            reference = FleetEngine(
                config, clock=HarnessClock(time.perf_counter_ns)).run()
            untraced_ns = time.perf_counter_ns() - start

        tracer = Tracer()
        ledger = CounterLedger()

        def on_built(system) -> None:
            instrument_system(tracer, system)
            ledger.attach(system.kernel)

        factory = system_factory(System, on_built, tracer)
        with gc_held(), patched(repro.fleet.shard, "System", factory):
            start = time.perf_counter_ns()
            engine = FleetEngine(config,
                                 clock=HarnessClock(time.perf_counter_ns))
            for shard in engine.shards:
                shard.report = tracer.wrap("stats.report", shard.report)
            stats = tracer.wrap("stats.merge", FleetStats.merge)(
                engine.run_parts())
            traced_ns = time.perf_counter_ns() - start

        ok, note = fleet_gate(stats, config)
        if not ok:
            problems.append(f"traced run: {note}")
        if stats.comparable() != reference.comparable():
            problems.append("traced comparable() differs from untraced")
        extra = {"engine.steps": stats.ops}
        metrics = layer_metrics(tracer, ledger, traced_ns, untraced_ns,
                                FLEET_LAYERS, extra, problems)
        return TraceResult(metrics, FLEET_LAYERS, tracer, problems,
                           config.sessions, fingerprint(stats.comparable()))


def fleet_gate(stats: FleetStats, config: FleetConfig) -> Tuple[bool, str]:
    if stats.completed + stats.failed != config.sessions:
        return False, (f"completed {stats.completed} + failed {stats.failed}"
                       f" != sessions {config.sessions}")
    return True, ""


# ----------------------------------------------------------------------
# The red-team sweep
# ----------------------------------------------------------------------
class OpTimer:
    """Per-operation wall latencies of the sweep's own calls, taken the
    way the fleet engine takes them: a clock read either side of the
    call. Attached to each ``System`` the sweep builds."""

    KERNEL_OPS = (("sys_stat", "stat"), ("sys_open", "open"),
                  ("sys_write", "write"), ("sys_sendto", "send"))
    PROGRAMS = {"/usr/bin/sudo": "sudo", "/usr/bin/passwd": "passwd"}

    def __init__(self) -> None:
        self.ledgers: Dict[str, LatencyLedger] = {}
        self.built: List[System] = []

    def _timed(self, op: str, fn: Callable) -> Callable:
        clock = time.perf_counter_ns
        record = self.ledgers.setdefault(op, LatencyLedger()).record

        def timed(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record(clock() - start)

        return timed

    def attach(self, system: System) -> None:
        self.built.append(system)
        kernel = system.kernel
        for attr, op in self.KERNEL_OPS:
            setattr(kernel, attr, self._timed(op, getattr(kernel, attr)))
        system.login = self._timed("login", system.login)
        run = system.run
        timed_runs = {path: self._timed(op, run)
                      for path, op in self.PROGRAMS.items()}

        def run_program(task, path, *args, **kwargs):
            return timed_runs.get(path, run)(task, path, *args, **kwargs)

        system.run = run_program


@dataclasses.dataclass(frozen=True)
class SweepWorkload:
    name: str
    scenarios: int

    def setup(self, seed: int, scale: float = 1.0) -> Tuple[int, int]:
        """``setup_s`` for the sweep: one scenario's twin build. Returns
        the seed and the number of scenarios a pass sweeps."""
        spec = generate_scenario(seed, 0)
        repro.core.build.build_pair(
            battery.battery_config(spec, redteam_plan(spec)))
        return seed, scaled(self.scenarios, scale)

    def run_pass(self, prepared: Tuple[int, int],
                 setup_s: float) -> Tuple[Sample, dict]:
        """One pooled sweep (``scenarios_per_s``), then the same
        scenarios replayed serially under :class:`OpTimer`, each followed
        by a password rotation as the attacker on both builds (the sweep
        itself runs no ``passwd``)."""
        seed, count = prepared
        with gc_held():
            start = time.perf_counter_ns()
            pooled = run_battery(seed, count, workers=SWEEP_WORKERS)
            pooled_ns = time.perf_counter_ns() - start
        ok, note = sweep_gate(pooled, count)

        plans = [redteam_plan(generate_scenario(seed, sid))
                 for sid in range(count)]
        timer = OpTimer()
        factory = system_factory(System, timer.attach)
        records = []
        with gc_held(), patched(repro.core.build, "System", factory):
            start = time.perf_counter_ns()
            for sid, plan in enumerate(plans):
                timer.built.clear()
                records.append(run_scenario_battery(seed, sid))
                for system in timer.built:
                    session = system.spawn_session(plan.attacker,
                                                   plan.attacker_password)
                    status, _ = session.run(
                        "/usr/bin/passwd", ["passwd"],
                        feed=[plan.attacker_password] * 3)
                    if status != 0 and ok:
                        ok, note = False, f"s{sid}: passwd exit {status}"
            serial_ns = time.perf_counter_ns() - start
        timer.built.clear()
        if ok and records != pooled["scenarios"]:
            ok, note = False, "serial records differ from the pooled sweep"

        logins = timer.ledgers["login"].count if "login" in timer.ledgers \
            else 0
        values = {
            "sessions_per_s": logins / (serial_ns / 1e9),
            "scenarios_per_s": count / (pooled_ns / 1e9),
        }
        values.update(latency_values(timer.ledgers))
        sample = Sample(ok, count, 0 if ok else count, values,
                        timer.ledgers, note)
        return sample, pooled

    def trace(self, seed: int, scale: float) -> "TraceResult":
        count = scaled(self.scenarios, scale)
        problems: List[str] = []

        # An untimed warm-up, so both timed runs find the process-wide
        # provisioning and parse memos warm. Then the untraced serial
        # reference, timed per scenario only: the busy time the pool
        # divides between its workers.
        run_battery(seed, count, workers=1)
        busy = Tracer()
        point = battery._battery_point
        with gc_held(), patched(battery, "_battery_point",
                                busy.wrap("redteam.scenario", point)):
            start = time.perf_counter_ns()
            reference = run_battery(seed, count, workers=1)
            untraced_ns = time.perf_counter_ns() - start
        busy_ns = busy.layers()["redteam.scenario"]["total_ns"]

        tracer = Tracer()
        ledger = CounterLedger()

        def on_built(system) -> None:
            instrument_system(tracer, system)
            ledger.attach(system.kernel)

        scenario_span = tracer.wrap("redteam.scenario", point)

        def traced_point(key):
            tracer.request_id = key[1]
            try:
                return scenario_span(key)
            finally:
                tracer.request_id = -1

        techniques = tuple(
            (name, applicable, tracer.wrap("redteam.techniques", run))
            for name, applicable, run in battery.TECHNIQUES)
        with contextlib.ExitStack() as seams:
            seams.enter_context(gc_held())
            seams.enter_context(patched(
                repro.core.build, "System",
                system_factory(System, on_built, tracer)))
            seams.enter_context(patched(
                battery, "generate_scenario",
                tracer.wrap("generator", battery.generate_scenario)))
            seams.enter_context(patched(
                battery, "enumerate_surface",
                tracer.wrap("redteam.surface", battery.enumerate_surface)))
            seams.enter_context(patched(battery, "TECHNIQUES", techniques))
            seams.enter_context(patched(battery, "_battery_point",
                                        traced_point))
            start = time.perf_counter_ns()
            traced = run_battery(seed, count, workers=1)
            traced_ns = time.perf_counter_ns() - start

        chunks: List[int] = []
        pool_map = multiprocessing.pool.Pool.map

        def counting_map(pool, fn, iterable, *args, **kwargs):
            iterable = list(iterable)
            chunks.append(len(iterable))
            return pool_map(pool, fn, iterable, *args, **kwargs)

        with gc_held(), patched(multiprocessing.pool.Pool, "map",
                                counting_map):
            start = time.perf_counter_ns()
            pooled = run_battery(seed, count, workers=SWEEP_WORKERS)
            pool_ns = time.perf_counter_ns() - start

        for label, result in (("reference", reference), ("traced", traced),
                              ("pooled", pooled)):
            ok, note = sweep_gate(result, count)
            if not ok:
                problems.append(f"{label} sweep: {note}")
        if not traced == reference == pooled:
            problems.append("traced, untraced and pooled sweeps differ")
        extra = {
            "redteam.chains": traced["chains"],
            "pool.wall_s": pool_ns / 1e9,
            "pool.chunks": sum(chunks),
            "pool.busy_s": busy_ns / 1e9,
            "pool.overhead_s": (pool_ns - busy_ns / SWEEP_WORKERS) / 1e9,
        }
        metrics = layer_metrics(tracer, ledger, traced_ns, untraced_ns,
                                SWEEP_LAYERS, extra, problems)
        return TraceResult(metrics, SWEEP_LAYERS, tracer, problems, count,
                           fingerprint(traced))


def sweep_gate(result: dict, count: int) -> Tuple[bool, str]:
    if result["n_scenarios"] != count:
        return False, f"{result['n_scenarios']} of {count} scenarios ran"
    if result["block_rate"] != 1.0:
        return False, f"block rate {result['block_rate']}"
    if result["violations"]:
        return False, f"violations: {result['violations'][:3]}"
    return True, ""


# ----------------------------------------------------------------------
# Shared derivations
# ----------------------------------------------------------------------
def layer_metrics(tracer: Tracer, ledger: CounterLedger, traced_ns: int,
                  untraced_ns: int, own: Tuple[Tuple[str, str], ...],
                  extra: Dict[str, float],
                  problems: List[str]) -> Dict[str, float]:
    """The :data:`PER_LAYER` metrics plus the workload's *own* layer
    metrics (*extra* holds the ones not derived from spans or counters)."""
    ok, note = check_algebra(tracer, traced_ns)
    if not ok:
        problems.append(f"span algebra: {note}")
    layers = tracer.layers()
    counters = ledger.totals()
    out: Dict[str, float] = {name: 0 for name, _ in PER_LAYER + own}

    def row(name: str) -> Dict[str, int]:
        return layers.get(name, {"calls": 0, "self_ns": 0, "total_ns": 0})

    for name in SELF_TIMED:
        if f"{name}.self_s" in out:
            out[f"{name}.self_s"] = row(name)["self_ns"] / 1e9
        if f"{name}.calls" in out:
            out[f"{name}.calls"] = row(name)["calls"]
    for name in INCLUSIVE_TIMED:
        out[f"{name}.calls"] = row(name)["calls"]
        out[f"{name}.s"] = row(name)["total_ns"] / 1e9
    out["build.systems"] = row("build.system")["calls"]
    out["build.system_s"] = row("build.system")["total_ns"] / 1e9
    out["engine.self_s"] = (traced_ns - tracer.root_ns()) / 1e9
    for key in ("entry.mask_hits", "entry.revalidations", "entry.rejections",
                "fastpath.lookups", "fastpath.stale_evictions",
                "fastpath.invalidations", "fastpath.size",
                "dcache.invalidations", "security.flushes",
                "audit.appended", "audit.dropped", "audit.lost",
                "generations.bumps.mount", "generations.bumps.policy",
                "generations.bumps.cred"):
        out[key] = counters[key]
    out["fastpath.hit_ratio"] = ratio(counters["fastpath.hits"],
                                      counters["fastpath.lookups"])
    out["dcache.hit_ratio"] = ratio(counters["dcache.hits"],
                                    counters["dcache.lookups"])
    out["security.decision_hit_ratio"] = ratio(counters["security.hits"],
                                               counters["security.lookups"])
    out["netfilter.flow_hit_ratio"] = ratio(counters["netfilter.flow_hits"],
                                            counters["netfilter.flow_lookups"])
    out["lsm.denials"] = tracer.counts.get("lsm.denials", 0)
    out["trace.overhead_ratio"] = traced_ns / untraced_ns
    out["trace.spans"] = len(tracer)
    out["trace.wall_s"] = traced_ns / 1e9
    out["trace.untraced_wall_s"] = untraced_ns / 1e9
    out.update(extra)
    return out


def latency_values(ledgers: Dict[str, LatencyLedger]) -> Dict[str, float]:
    """The latency metrics one set of per-operation ledgers (ns) yields;
    a p99 is left out below :data:`P99_MIN_SAMPLES` samples."""
    out = {}
    for metric, (op, fraction, per_unit) in LATENCIES.items():
        ledger = ledgers.get(op)
        if ledger is None or not ledger.count or (
                fraction == 0.99 and ledger.count < P99_MIN_SAMPLES):
            continue
        p50, p95, p99 = ledger.percentiles()
        out[metric] = {0.50: p50, 0.95: p95, 0.99: p99}[fraction] / per_unit
    return out


def aggregate(samples: List[Sample]) -> Dict[str, Dict]:
    """Run-level figures from the passes that passed their gate.

    Throughputs are the median over passes. Latencies come from the
    per-operation ledgers of every good pass merged, with the sample
    count behind them. Quartiles are over the per-pass figures.
    """
    good = [sample for sample in samples if sample.ok]
    out: Dict[str, Dict] = {}
    for name, unit in END_TO_END:
        per_pass = [sample.values[name] for sample in good
                    if name in sample.values]
        if name in LATENCIES:
            op = LATENCIES[name][0]
            merged = LatencyLedger.merged(
                [sample.ledgers[op] for sample in good
                 if op in sample.ledgers])
            value = latency_values({op: merged}).get(name)
            count = merged.count
        elif per_pass:
            value, count = quartiles(per_pass)[1], len(per_pass)
        else:
            value = None
        if value is None:
            continue
        q1, _, q3 = quartiles(per_pass) if per_pass else (value, 0, value)
        out[name] = {"value": value, "unit": unit, "n": count,
                     "q1": q1, "q3": q3, "per_pass": per_pass}
    attempted = sum(sample.attempted for sample in samples)
    failed = sum(sample.failed for sample in samples)
    out["session_ok_ratio"] = {
        "value": (attempted - failed) / attempted if attempted else 0.0,
        "unit": "ratio", "n": attempted}
    return out


def ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def fingerprint(reference: dict) -> str:
    """A short CRC of a pass's deterministic output, for comparing
    separate processes run on the same seed."""
    return f"{zlib.crc32(repr(reference).encode()):08x}"


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3), as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


WORKLOADS = {
    "fleet-warm": FleetWorkload("fleet-warm", sessions=1200, shards=4),
    "fleet-overflow": FleetWorkload("fleet-overflow", sessions=2000,
                                    shards=1),
    "admin-churn": FleetWorkload(
        "admin-churn", sessions=1200, shards=4,
        mix=(("admin", 2), ("builder", 2), ("interactive", 1)),
        bookkeeping_interval=128),
    "redteam-sweep": SweepWorkload("redteam-sweep", scenarios=32),
}
