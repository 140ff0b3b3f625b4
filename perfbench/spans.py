"""Outside-in span tracing for the benchmark's traced run.

The benchmark never edits the program. It wraps the public entry points
of each layer on the instances it builds (``System``, its ``Kernel``,
the kernel's VFS, security server, LSM chain and fast-path table) and
records one span per call: layer name, start and end
(``time.perf_counter_ns``), the enclosing span and a request id.
Spans live in memory in flat ``array`` columns (26 bytes a span, so a
million-span fleet run stays in tens of megabytes) and are written out
once, when the run ends.

Derived figures:

* **self time** of a span = its duration minus the durations of its
  direct children (spans nest strictly: one thread, every span closes
  in a ``finally``);
* **outside time** = traced wall time minus the duration of every root
  span — the time no wrapped layer was on the stack (the fleet
  scheduler, generator resumes, script bodies, the sweep driver).

The two add up exactly: the self times of all spans plus the outside
time equal the wall time. :func:`check_algebra` verifies that, and that
every child lies inside its parent.

A call that re-enters the layer whose span is innermost (``lookup_verdict``
calling ``lookup``, ``check`` calling ``capable`` calling ``check``) is
folded into the open span rather than opening a second one, so
``calls`` counts entries into a layer, not its internal recursion.
"""

from __future__ import annotations

import contextlib
import json
import time
from array import array
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.kernel.lsm import HookResult

#: Kernel syscall methods with a span of their own; every other
#: ``sys_*`` method lands in ``syscalls.other``.
SYSCALL_SPANS = {
    "sys_stat": "syscalls.stat",
    "sys_open": "syscalls.open",
    "sys_close": "syscalls.close",
    "sys_execve": "syscalls.execve",
    "sys_sendto": "net.sendto",
}


class Tracer:
    """In-memory span recorder."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.request = array("i")
        self.stack: List[int] = []
        #: Id stamped on every span opened while it is set (the sweep
        #: sets the scenario id; fleet spans carry -1 — see README).
        self.request_id = -1
        #: Event counts observed at span boundaries (LSM denials).
        self.counts: Dict[str, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self) -> int:
        return len(self.start)

    # -- recording -----------------------------------------------------
    def wrap(self, name: str, fn: Callable,
             count_if: Optional[Tuple[str, Callable]] = None) -> Callable:
        """*fn* with a span named *name* around every call.

        *count_if* is ``(counter, predicate)``: the counter is bumped
        when ``predicate(result)`` holds.
        """
        nid = self.name_id(name)
        clock = self.clock
        stack = self.stack
        names, starts, ends = self.name, self.start, self.end
        parents, requests = self.parent, self.request
        counts = self.counts

        def traced(*args, **kwargs):
            if stack and names[stack[-1]] == nid:
                return fn(*args, **kwargs)
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.request_id)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if count_if is not None and count_if[1](result):
                counts[count_if[0]] = counts.get(count_if[0], 0) + 1
            return result

        return traced

    # -- derivation ----------------------------------------------------
    def layers(self) -> Dict[str, Dict[str, int]]:
        """Per span name: ``calls``, ``self_ns`` and ``total_ns``."""
        child = [0] * len(self.start)
        starts, ends, parents = self.start, self.end, self.parent
        for index in range(len(starts)):
            parent = parents[index]
            if parent >= 0:
                child[parent] += ends[index] - starts[index]
        out = {name: {"calls": 0, "self_ns": 0, "total_ns": 0}
               for name in self.names}
        names = self.names
        for index in range(len(starts)):
            row = out[names[self.name[index]]]
            duration = ends[index] - starts[index]
            row["calls"] += 1
            row["total_ns"] += duration
            row["self_ns"] += duration - child[index]
        return out

    def root_ns(self) -> int:
        """Summed duration of the spans with no parent."""
        return sum(self.end[i] - self.start[i]
                   for i in range(len(self.start)) if self.parent[i] < 0)

    # -- output --------------------------------------------------------
    def write(self, path: str, header: Dict) -> None:
        """Write every span: one JSON header line, then the raw columns."""
        meta = dict(header, names=self.names, spans=len(self),
                    columns=[(col, getattr(self, col).typecode)
                             for col in ("name", "start", "end", "parent",
                                         "request")])
        with open(path, "wb") as out:
            out.write(json.dumps(meta).encode() + b"\n")
            for col, _ in meta["columns"]:
                getattr(self, col).tofile(out)


def read_trace(path: str) -> Tuple[Dict, Dict[str, array]]:
    """Load a file written by :meth:`Tracer.write`."""
    with open(path, "rb") as src:
        meta = json.loads(src.readline())
        columns = {}
        for col, code in meta["columns"]:
            columns[col] = array(code)
            columns[col].fromfile(src, meta["spans"])
    return meta, columns


def check_algebra(tracer: Tracer, wall_ns: int) -> Tuple[bool, str]:
    """Self times plus outside time equal the wall time, and spans nest."""
    starts, ends, parents = tracer.start, tracer.end, tracer.parent
    for index in range(len(starts)):
        if ends[index] < starts[index]:
            return False, f"span {index} ends before it starts"
        parent = parents[index]
        if parent >= 0 and not (starts[parent] <= starts[index]
                                and ends[index] <= ends[parent]):
            return False, f"span {index} escapes its parent {parent}"
    self_total = sum(row["self_ns"] for row in tracer.layers().values())
    outside = wall_ns - tracer.root_ns()
    if outside < 0:
        return False, "spans cover more than the wall time"
    if self_total + outside != wall_ns:
        return False, (f"self {self_total} + outside {outside} "
                       f"!= wall {wall_ns}")
    return True, "ok"


# ----------------------------------------------------------------------
# Instrumentation of built instances
# ----------------------------------------------------------------------
def _lsm_denied(result) -> bool:
    verdict = result[0] if isinstance(result, tuple) else result.result
    return verdict is HookResult.DENY


def instrument_system(tracer: Tracer, system) -> None:
    """Wrap the layer entry points of one built ``System``."""
    kernel = system.kernel
    for attr in dir(type(kernel)):
        if attr.startswith("sys_"):
            setattr(kernel, attr, tracer.wrap(
                SYSCALL_SPANS.get(attr, "syscalls.other"),
                getattr(kernel, attr)))
    vfs = kernel.vfs
    vfs.lookup = tracer.wrap("vfs.lookup", vfs.lookup)
    vfs.lookup_verdict = tracer.wrap("vfs.lookup", vfs.lookup_verdict)
    server = kernel.security_server
    server.check = tracer.wrap("security.check", server.check)
    server.check_verdict = tracer.wrap("security.check", server.check_verdict)
    server.invalidate_object = tracer.wrap("security.invalidate_object",
                                           server.invalidate_object)
    lsm = kernel.lsm
    denied = ("lsm.denials", _lsm_denied)
    lsm.call_detailed = tracer.wrap("lsm", lsm.call_detailed, denied)
    lsm.call_setuid = tracer.wrap("lsm", lsm.call_setuid, denied)
    kernel.fastpath.put = tracer.wrap("fastpath.put", kernel.fastpath.put)
    system.spawn_session = tracer.wrap("session.login", system.spawn_session)
    system.run = tracer.wrap("userspace.run", system.run)
    system.sync = tracer.wrap("daemon.sync", system.sync)


@contextlib.contextmanager
def patched(target, attr: str, value) -> Iterator[None]:
    """Temporarily replace ``target.attr`` (a module-level seam)."""
    original = getattr(target, attr)
    setattr(target, attr, value)
    try:
        yield
    finally:
        setattr(target, attr, original)


def system_factory(original: Callable,
                   on_built: Callable[[object], None],
                   tracer: Optional[Tracer] = None) -> Callable:
    """A stand-in for the ``System`` class a builder module constructs
    through: builds the real thing (inside a ``build.system`` span when
    tracing) and hands the instance to *on_built*."""

    build = (tracer.wrap("build.system", original) if tracer is not None
             else original)

    def factory(*args, **kwargs):
        system = build(*args, **kwargs)
        on_built(system)
        return system

    return factory


# ----------------------------------------------------------------------
# Layer counters, diffed over a run
# ----------------------------------------------------------------------
def kernel_counters(kernel) -> Dict[str, int]:
    """The counters one kernel's layers already keep."""
    gate = kernel.entry_gate.stats
    fp = kernel.fastpath.stats
    dc = kernel.vfs.dcache.stats
    avc = kernel.security_server.stats
    ring = kernel.security_server.audit
    nf = kernel.net.netfilter.stats
    hub = kernel.generations
    return {
        "entry.mask_hits": gate.mask_hits,
        "entry.revalidations": gate.mask_recomputes,
        "entry.rejections": gate.rejections,
        "fastpath.hits": fp.hits,
        "fastpath.lookups": fp.lookups,
        "fastpath.stale_evictions": fp.stale_evictions,
        "fastpath.invalidations": fp.invalidations,
        "dcache.hits": dc.hits,
        "dcache.lookups": dc.lookups,
        "dcache.invalidations": dc.invalidations,
        "security.hits": avc.hits,
        "security.lookups": avc.lookups,
        "security.flushes": avc.flushes,
        "audit.appended": ring.seq,
        "audit.dropped": ring.dropped,
        "audit.lost": ring.lost,
        "netfilter.flow_hits": nf["flow_hits"],
        "netfilter.flow_lookups": nf["flow_hits"] + nf["flow_misses"],
        "generations.bumps.mount": hub.mount,
        "generations.bumps.policy": hub.policy,
        "generations.bumps.cred": hub.cred,
    }


class CounterLedger:
    """Counter deltas summed over every kernel attached during a run."""

    def __init__(self) -> None:
        self._kernels: List[Tuple[object, Dict[str, int]]] = []

    def attach(self, kernel) -> None:
        self._kernels.append((kernel, kernel_counters(kernel)))

    def totals(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        size = 0
        for kernel, base in self._kernels:
            for key, value in kernel_counters(kernel).items():
                out[key] = out.get(key, 0) + value - base[key]
            size += len(kernel.fastpath)
        out["fastpath.size"] = size
        return out


__all__ = ["SYSCALL_SPANS", "Tracer", "CounterLedger", "check_algebra",
           "instrument_system", "kernel_counters", "patched", "read_trace",
           "system_factory"]
