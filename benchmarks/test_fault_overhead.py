"""Disarmed fault sites must be (near) free on the hot paths.

Every cache insert in the kernel goes through
:meth:`~repro.kernel.pathindex.BoundedTable.put`, whose first line asks
the table's fault site — a single ``if site.armed:`` attribute load
when disarmed, the moral equivalent of a static branch key. This
benchmark measures that guard directly: each operation is raced
against a guard-free clone of ``put`` (the same body minus the guard)
on identical workloads, interleaved best-of-batches, and the disarmed
overhead must stay under 5%.

Workloads are insert-heavy on purpose — caches are flushed every
iteration so the guarded line actually executes, and each row asserts
(by a counter delta) that it reaches the insert it names. The warm
stat row is the control: a steady-state hit never reaches a guard.

Results land in ``BENCH_fault_overhead.json`` at the repo root and
``benchmarks/reports/fault_overhead.txt``.
"""

import json
import time
from pathlib import Path

from benchmarks.conftest import bench_scale
from repro.core import System, SystemMode
from repro.kernel import modes
from repro.kernel.pathindex import BoundedTable

ITERATIONS = max(200, int(4_000 * bench_scale()))
BATCHES = 6
DEPTH = 12
OVERHEAD_BAR_PERCENT = 5.0
JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_fault_overhead.json"


# ----------------------------------------------------------------------
# The guard-free clone: BoundedTable.put minus its fault guard.
# ----------------------------------------------------------------------
def _put_unguarded(self, key, value):
    at = self.path_at
    path = key[at] if at is not None else None
    self[key] = value
    if at is not None:
        self.index.add(path, key)
    if len(self) > self.max_entries:
        evicted, _ = self.popitem(last=False)
        if at is not None:
            self.index.discard(evicted[at], evicted)
    return True


class _patched:
    """Swap the guard-free clone in for one timed pass."""

    def __enter__(self):
        self._saved = BoundedTable.__dict__["put"]
        BoundedTable.put = _put_unguarded

    def __exit__(self, *exc):
        BoundedTable.put = self._saved


# ----------------------------------------------------------------------
# Workloads (insert-heavy: flush so the guarded lines run every time)
# ----------------------------------------------------------------------
def _system():
    system = System(SystemMode.PROTEGO)
    kernel = system.kernel
    # The fused fast path would absorb the warm calls before any
    # guarded insert runs; this benchmark measures the layers below.
    kernel.fastpath.enabled = False
    root = system.root_session()
    path = "/bench"
    kernel.sys_mkdir(root, path)
    for i in range(DEPTH - 2):
        path = f"{path}/d{i}"
        kernel.sys_mkdir(root, path)
    deep_path = f"{path}/file"
    kernel.write_file(root, deep_path, b"x" * 64)
    return kernel, root, deep_path


def _ops(kernel, root, deep_path):
    """name -> (operation, a counter that moves once per insert it
    names, whether one call reaches that insert)."""
    dcache = kernel.vfs.dcache
    server = kernel.security_server

    def op_dcache_insert():
        dcache.flush()
        kernel.sys_stat(root, deep_path)

    def op_decision_insert():
        server.flush()
        kernel.sys_access(root, deep_path, modes.R_OK)

    def op_warm_stat():
        kernel.sys_stat(root, deep_path)

    return {"dcache insert": (op_dcache_insert,
                              lambda: dcache.stats.walks, True),
            "decision insert": (op_decision_insert,
                                lambda: server.stats.misses, True),
            "warm stat": (op_warm_stat, lambda: dcache.stats.walks, False)}


def _time_pass(op, iterations):
    start = time.perf_counter()
    for _ in range(iterations):
        op()
    return (time.perf_counter() - start) / iterations * 1e6


def _measure(op):
    """Interleaved best-of-batches: guarded (disarmed) vs unguarded."""
    guarded_us, unguarded_us = [], []
    per_pass = max(50, ITERATIONS // BATCHES)
    op()  # warm
    for _ in range(BATCHES):
        guarded_us.append(_time_pass(op, per_pass))
        with _patched():
            unguarded_us.append(_time_pass(op, per_pass))
    return min(guarded_us), min(unguarded_us)


def test_disarmed_fault_sites_are_cheap(write_report):
    kernel, root, deep_path = _system()
    assert not kernel.faults.any_armed
    results = {}
    for name, (op, inserts, reaches) in _ops(kernel, root, deep_path).items():
        before = inserts()
        op()
        assert (inserts() > before) == reaches, (
            f"{name}: {inserts() - before} inserts in one call")
        guarded, unguarded = _measure(op)
        overhead = (guarded - unguarded) / unguarded * 100.0
        results[name] = {
            "guarded_us": round(guarded, 4),
            "unguarded_us": round(unguarded, 4),
            "overhead_percent": round(overhead, 2),
        }

    payload = {
        "benchmark": "fault_overhead",
        "iterations": ITERATIONS,
        "batches": BATCHES,
        "path_depth": DEPTH,
        "bar_percent": OVERHEAD_BAR_PERCENT,
        "ops": results,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    lines = [f"Fault-site guard overhead, sites disarmed "
             f"({ITERATIONS} iterations, depth {DEPTH})",
             f"{'operation':16s} {'guarded':>11s} {'unguarded':>11s} "
             f"{'overhead':>9s}"]
    for name, row in results.items():
        lines.append(f"{name:16s} {row['guarded_us']:>9.3f}us "
                     f"{row['unguarded_us']:>9.3f}us "
                     f"{row['overhead_percent']:>8.2f}%")
    write_report("fault_overhead", lines)

    for name, row in results.items():
        assert row["overhead_percent"] < OVERHEAD_BAR_PERCENT, (
            f"{name}: disarmed guard costs {row['overhead_percent']}% "
            f"(bar {OVERHEAD_BAR_PERCENT}%)")
