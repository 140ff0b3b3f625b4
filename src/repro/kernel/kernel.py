"""The Kernel: owns all simulator state and boots the machine.

A :class:`Kernel` is one simulated machine. Provisioning (users,
/etc files, installed binaries, devices, the security mode) is done by
:class:`repro.core.system.System`, which is the public entry point;
the Kernel itself is the mechanism layer.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
from typing import Deque, Dict, List, Optional

from repro.kernel.cred import Credentials
from repro.kernel.devices import DeviceRegistry
from repro.kernel.entry import EntryGate
from repro.kernel.fastpath import FastPathTable
from repro.kernel.fault import (
    SITE_AUDIT_APPEND,
    SITE_AVC_ALLOC,
    SITE_DCACHE_ALLOC,
    SITE_ENTRY_MASK,
    SITE_FASTPATH_INSERT,
    SITE_NET_DROP,
    SITE_NET_DUP,
    SITE_NET_REORDER,
    SITE_PROC_WRITE,
    SITE_SYSCALL_ENTRY,
    FaultInjector,
)
from repro.kernel.generations import GenerationHub
from repro.kernel.inode import make_dir
from repro.kernel.lsm import LSMChain, SecurityModule
from repro.kernel.net.stack import NetworkStack
from repro.kernel.procfs import PseudoFilesystem, make_procfs, make_sysfs
from repro.kernel.security import SecurityServer
from repro.kernel.syscalls import SyscallMixin
from repro.kernel.task import Task
from repro.kernel.vfs import VFS


@dataclasses.dataclass
class AuditRecord:
    """One audit log entry."""

    clock: int
    event: str
    pid: int
    uid: int
    euid: int
    detail: str


class Kernel(SyscallMixin):
    """One simulated machine's kernel."""

    def __init__(self, hostname: str = "sim", version: "KernelVersion" = None):
        from repro.kernel.namespaces import KernelVersion
        self.hostname = hostname
        # Linux 3.6.0 is the paper's base; bump to (3, 8) to enable
        # unprivileged user namespaces (section 4.6).
        self.version = version or KernelVersion(3, 6)
        # Deterministic fault injection (CONFIG_FAULT_INJECTION-style):
        # every degradable layer holds a named site from this registry,
        # guarded by a single `site.armed` load when disarmed.
        self.faults = FaultInjector()
        # One generation authority for every access-relevant cache:
        # mount and policy bumps advance a single composed generation
        # the fused fast path stamps; credential epochs are minted here
        # too so no two subjects ever share one.
        self.generations = GenerationHub()
        self.vfs = VFS(generations=self.generations)
        self.devices = DeviceRegistry()
        self.net = NetworkStack()
        self.lsm = LSMChain()
        # The reference monitor: composes DAC + LSM chain + capability
        # checks, caches decisions, and keeps the audit ring behind
        # /proc/protego/audit. Every path-keyed cache subscribes to the
        # hub's path fan-out: one invalidate_object() per mutation
        # reaches them all.
        self.security_server = SecurityServer(self.lsm, clock_fn=self.now,
                                              generations=self.generations)
        self.security_server.attach_dcache(self.vfs.dcache)
        # Bound-method shortcut for the fused open(2) hit path: the
        # ring is created once and never replaced, so the three
        # attribute hops per audit replay collapse to one load.
        self._audit_fused = self.security_server.audit.record_fused
        # The fused fast path: final open/stat/access verdicts keyed on
        # (op|mask, path, subject-id) — the sid interning (cred epoch,
        # cred, exe) — guarded by the hub's composed generation; prefix
        # invalidations arrive via the hub's path fan-out. The layered
        # walk below stays the oracle.
        self.fastpath = FastPathTable(
            self.generations, fault_site=self.faults.site(SITE_FASTPATH_INSERT))
        self._fp_sids: dict = {}
        self._fp_sid_iter = itertools.count(1).__next__
        # SFIP-style syscall-entry gating: per-task permitted-syscall
        # bitmasks checked before argument processing.
        self.entry_gate = EntryGate(self.faults.site(SITE_ENTRY_MASK))
        # Bind the injection sites into the layers they degrade.
        self.vfs.dcache.fault_site = self.faults.site(SITE_DCACHE_ALLOC)
        self.security_server.fault_site = self.faults.site(SITE_AVC_ALLOC)
        self.security_server.audit.fault_site = self.faults.site(SITE_AUDIT_APPEND)
        self.net.bind_faults(
            self.faults.site(SITE_NET_DROP),
            self.faults.site(SITE_NET_DUP),
            self.faults.site(SITE_NET_REORDER),
        )
        self._syscall_fault = self.faults.site(SITE_SYSCALL_ENTRY)
        self._proc_write_fault = self.faults.site(SITE_PROC_WRITE)
        self.tasks: Dict[int, Task] = {}
        self._pids = itertools.count(1)
        self.clock = 0
        # Bounded ring, like a real audit backend with rotation:
        # long-running benchmarks would otherwise grow it without end.
        self.audit: Deque[AuditRecord] = collections.deque(maxlen=20_000)
        # path -> Program; populated by userspace.program.install()
        self.binaries: Dict[str, object] = {}
        self.procfs: PseudoFilesystem = make_procfs()
        self.sysfs: PseudoFilesystem = make_sysfs()
        self._boot_namespace()
        self.init = self._spawn_init()

    # ------------------------------------------------------------------
    def _boot_namespace(self) -> None:
        root = self.vfs.rootfs.root
        for name in ("bin", "sbin", "etc", "dev", "home", "tmp", "var", "usr",
                     "mnt", "media", "cdrom", "lib", "proc", "sys", "root"):
            root.entries[name] = make_dir()
        tmp = root.entries["tmp"]
        tmp.mode = (tmp.mode & ~0o7777) | 0o1777  # sticky, world-writable
        self.vfs.attach("/proc", self.procfs)
        self.vfs.attach("/sys", self.sysfs)

    def _spawn_init(self) -> Task:
        init = Task(self._next_pid(), Credentials.for_root(), comm="init")
        init.cred_epoch = self.generations.next_cred_epoch()
        self.tasks[init.pid] = init
        return init

    def _next_pid(self) -> int:
        return next(self._pids)

    # ------------------------------------------------------------------
    def tick(self, n: int = 1) -> int:
        """Advance the logical clock (one tick per syscall)."""
        self.clock += n
        return self.clock

    def now(self) -> int:
        return self.clock

    def log_audit(self, event: str, task: Task, detail: str = "") -> None:
        self.audit.append(
            AuditRecord(self.clock, event, task.pid, task.cred.ruid,
                        task.cred.euid, detail)
        )

    def audit_events(self, event_prefix: str = "") -> List[AuditRecord]:
        return [r for r in self.audit if r.event.startswith(event_prefix)]

    # ------------------------------------------------------------------
    def register_module(self, module: SecurityModule) -> SecurityModule:
        self.lsm.register(module)
        module.security_server = self.security_server
        # A new policy layer changes answers to already-cached questions.
        self.security_server.flush(reason=f"register {module.name}")
        return module

    def new_task(self, cred: Credentials, comm: str = "proc",
                 parent: Optional[Task] = None, tty: Optional[object] = None) -> Task:
        """Create a task directly (a login session root, a daemon)."""
        task = Task(self._next_pid(), cred, parent=parent or self.init, comm=comm)
        task.cred_epoch = self.generations.next_cred_epoch()
        task.tty = tty
        self.tasks[task.pid] = task
        (parent or self.init).children.append(task)
        self.security_server.notify("task_alloc", task)
        return task

    def user_task(self, uid: int, gid: int, groups: List[int] = (),
                  comm: str = "shell", tty: Optional[object] = None) -> Task:
        return self.new_task(Credentials.for_user(uid, gid, groups), comm=comm, tty=tty)

    def root_task(self, comm: str = "root-shell") -> Task:
        return self.new_task(Credentials.for_root(), comm=comm)
