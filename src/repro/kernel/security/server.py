"""The security server: one reference monitor for every syscall.

Modelled on the SELinux AVC split: the *server* computes decisions by
composing the LSM chain with the stock capability and DAC policies,
and a keyed decision cache short-circuits repeated questions. The
cache key is ``(subject identity, cred epoch, hook, object, mask)``;
invalidation is explicit:

* a task's **cred epoch** is bumped on any setuid/setgid/setgroups or
  exec credential commit, orphaning every cached decision made under
  the old credentials;
* **object entries** are flushed (by path prefix) on chmod, chown,
  unlink, rename, and mount-table changes — the cache hears these
  through the generation hub's path fan-out, like every path-keyed
  cache;
* the cache is **flushed globally** when a security module's policy
  reloads — an AppArmor profile (un)load, a /proc/protego policy
  write, or a monitoring-daemon fstab/sudoers/bind sync.

Every decision — hit or miss — is appended to the bounded audit ring
surfaced at ``/proc/protego/audit``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Optional, Tuple, TYPE_CHECKING

from repro.kernel.capabilities import Capability
from repro.kernel.errno import Errno, SyscallError
from repro.kernel.fault import SITE_AVC_ALLOC, FaultSite
from repro.kernel.generations import GenerationHub
from repro.kernel.lsm import HookResult, LSMChain
from repro.kernel.pathindex import BoundedTable
from repro.kernel.security.access import (
    OBJ,
    AccessRequest,
    Decision,
    LAYER_CAPABILITY,
    LAYER_DAC,
    LAYER_DEFAULT,
    Verdict,
)
from repro.kernel.security.audit import AuditRing

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.task import Task

#: Hooks whose decisions are pure functions of (credentials, object,
#: loaded policy) and therefore safe to cache. Hooks with side effects
#: or per-call state (setuid deferral, bprm pending transitions,
#: mount-table bookkeeping, ioctl argument-dependent checks) are
#: always recomputed.
CACHEABLE_HOOKS = frozenset(
    {"capable", "inode_permission", "file_open", "socket_bind", "socket_create"}
)

#: Denials that merely report non-existence are not access decisions;
#: caching them would mask a later create of the same name.
_UNCACHEABLE_ERRNOS = frozenset({Errno.ENOENT, Errno.ENOTDIR, Errno.ELOOP})

#: Errnos the fused fast path must never memoize. Narrower than the
#: decision cache's set: ENOENT *is* fusable — the fused table sits
#: behind the dentry cache's prefix invalidation, so a later create of
#: the name clears the entry, exactly the argument for negative
#: dentries. ENOTDIR/ELOOP stay out: they describe the shape of the
#: walk, not an access verdict.
_FASTPATH_UNCACHEABLE_ERRNOS = frozenset({Errno.ENOTDIR, Errno.ELOOP})

_SETUID_HOOKS = frozenset({"task_fix_setuid", "task_fix_setgid"})


@dataclasses.dataclass
class CacheStats:
    """Decision-cache counters (mirrors /sys/fs/selinux/avc/cache_stats)."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    uncacheable: int = 0
    invalidations: int = 0
    flushes: int = 0
    #: Insertions refused by an injected allocation failure: the
    #: decision was still computed and returned, it just went uncached
    #: (the fail-closed degradation — never a stale answer).
    alloc_failures: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class SecurityServer:
    """Computes, caches, and audits access decisions."""

    def __init__(
        self,
        lsm: LSMChain,
        clock_fn: Optional[Callable[[], int]] = None,
        cache_size: int = 2048,
        audit_size: int = 4096,
        generations: Optional[GenerationHub] = None,
    ):
        self.lsm = lsm
        self._clock = clock_fn or (lambda: 0)
        self.cache_enabled = True
        #: Keyed by _key(); the object (index 5) is path-indexed.
        #: Simulated AVC-node allocation failure: an armed fault site
        #: makes the insert a counted no-op, so decisions degrade to
        #: fresh computation. Rebound to the kernel's injector at boot.
        self._cache = BoundedTable(cache_size, path_at=5,
                                   fault_site=FaultSite(SITE_AVC_ALLOC))
        #: Credential epochs come from the shared generation hub, so
        #: one allocator serves the decision cache, the dcache's
        #: permission maps, and the fused fast-path keys.
        self.generations = generations if generations is not None \
            else GenerationHub()
        self.generations.subscribe_paths(self._invalidate_prefix)
        self.audit = AuditRing(audit_size)
        self.stats = CacheStats()
        # The VFS dentry cache, when attached, drops its permission
        # maps whenever this server's policy flushes.
        self._dcache = None

    @property
    def fault_site(self) -> FaultSite:
        return self._cache.fault_site

    @fault_site.setter
    def fault_site(self, site: FaultSite) -> None:
        self._cache.fault_site = site

    # ------------------------------------------------------------------
    # The monitor
    # ------------------------------------------------------------------
    def check(self, req: AccessRequest) -> Decision:
        """Answer *req*: cache lookup, else full composition."""
        key = self._key(req)
        if key is not None:
            self.stats.lookups += 1
            hit = self._cache.get(key)
            if hit is not None:
                self.stats.hits += 1
                self._record(req, hit, cached=True)
                return hit
            self.stats.misses += 1
        else:
            self.stats.uncacheable += 1
        decision = self._decide(req)
        # The module cacheability veto runs at insert time only: a
        # vetoed decision is never inserted, so no hit can ever serve
        # it, and hits stay a pure dict probe. Modules whose veto set
        # mutates at runtime must invalidate on mutation (the binary
        # ACL does; profile loads flush globally).
        cache_ok = (key is not None
                    and self.lsm.cache_ok(req.hook, req.task, *req.args))
        if cache_ok:
            # The same veto governs the fused fast path: a decision no
            # module objects to memoizing may be fused upstream (the
            # syscall layer still requires a cached dentry). Set before
            # the insert so a decision-cache hit replays the flag.
            if decision.errno not in _FASTPATH_UNCACHEABLE_ERRNOS:
                object.__setattr__(decision, "fastpath_ok", True)
            if (decision.errno not in _UNCACHEABLE_ERRNOS
                    and not self._cache.put(key, decision)):
                self.stats.alloc_failures += 1
        self._record(req, decision, cached=False)
        return decision

    def check_verdict(self, req: AccessRequest) -> Tuple[Decision, Tuple[bool, int]]:
        """:meth:`check` in verdict form: ``(decision, (fastpath_ok,
        composed_generation))``. The dependency tuple names what a
        fused caller must record: whether any layer vetoed memoization
        and the composed generation the decision was computed under."""
        decision = self.check(req)
        return decision, (decision.fastpath_ok, self.generations.generation)

    def capable(self, task: "Task", cap: Capability, context: str = "") -> bool:
        """The kernel's single capability funnel, as a cached, audited
        decision (LSM ``capable`` hook may veto or grant)."""
        return self.check(
            AccessRequest(
                hook="capable",
                task=task,
                obj=f"cap:{cap.name}",
                args=(cap,),
                capability=cap,
                context=context,
            )
        ).allowed

    # ------------------------------------------------------------------
    # Composition: DAC -> LSM chain -> capability -> identity fallback
    # ------------------------------------------------------------------
    def _decide(self, req: AccessRequest) -> Decision:
        value = None
        if req.dac is not None:
            try:
                value = req.dac()
            except SyscallError as exc:
                return self._deny(req, LAYER_DAC, errno=exc.errno_value,
                                  detail=exc.context)

        if req.hook in _SETUID_HOOKS:
            setuid_decision = self.lsm.call_setuid(req.hook, req.task, req.args[0])
            if setuid_decision.result is HookResult.DENY:
                return self._deny(req, setuid_decision.module or "lsm",
                                  lsm_module=setuid_decision.module)
            if setuid_decision.result is HookResult.ALLOW:
                return self._allow(req, setuid_decision.module or "lsm",
                                   lsm_module=setuid_decision.module,
                                   pending=setuid_decision.pending, value=value)
        else:
            hook_args = tuple(value if a is OBJ else a for a in req.args)
            result, module = self.lsm.call_detailed(req.hook, req.task, *hook_args)
            if result is HookResult.DENY:
                return self._deny(req, module or "lsm", lsm_module=module)
            if result is HookResult.ALLOW:
                return self._allow(req, module or "lsm", lsm_module=module,
                                   value=value)

        # Default policy: capability, then the identity fallback.
        if req.capability is not None:
            if req.hook == "capable":
                held = req.task.cred.has_cap(req.capability)
            else:
                held = self.capable(req.task, req.capability, context=req.context)
            if held:
                return self._allow(req, LAYER_CAPABILITY, value=value)
            if req.fallback is not None and req.fallback():
                return self._allow(req, LAYER_DAC, value=value)
            return self._deny(req, LAYER_CAPABILITY, errno=Errno.EPERM)
        return self._allow(req, LAYER_DAC if req.dac is not None else LAYER_DEFAULT,
                           value=value)

    def _allow(self, req: AccessRequest, layer: str, lsm_module: Optional[str] = None,
               pending: Any = None, value: Any = None) -> Decision:
        return Decision(
            verdict=Verdict.ALLOW, layer=layer, hook=req.hook, obj=req.obj,
            lsm_module=lsm_module, pending=pending, value=value,
        )

    def _deny(self, req: AccessRequest, layer: str, errno: Optional[Errno] = None,
              lsm_module: Optional[str] = None, detail: str = "") -> Decision:
        context = f"{layer}:{req.hook}"
        extra = detail or req.context
        if extra:
            context = f"{context}: {extra}"
        return Decision(
            verdict=Verdict.DENY, layer=layer, hook=req.hook, obj=req.obj,
            errno=errno or req.deny_errno, context=context, lsm_module=lsm_module,
        )

    # ------------------------------------------------------------------
    # Cache keying and invalidation
    # ------------------------------------------------------------------
    def _key(self, req: AccessRequest) -> Optional[Tuple]:
        if not (self.cache_enabled and req.cacheable
                and req.hook in CACHEABLE_HOOKS):
            return None
        task = req.task
        # Credentials are frozen snapshots, so hashing the whole object
        # captures every identity input (uids, gids, capability sets);
        # the epoch additionally orphans entries on credential commits.
        return (
            task.pid, task.cred_epoch, task.cred, task.exe_path,
            req.hook, req.obj, req.mask,
        )

    def bump_cred_epoch(self, task: "Task") -> int:
        """A credential commit happened: orphan every cached decision
        (and fused verdict — the epoch is in both keys) made under
        *task*'s old credentials."""
        task.cred_epoch = self.generations.next_cred_epoch()
        self.stats.invalidations += 1
        return task.cred_epoch

    def attach_dcache(self, dcache) -> None:
        """Have the VFS dentry cache drop its permission maps on every
        policy flush (set up by the kernel at boot)."""
        self._dcache = dcache

    def invalidate_object(self, obj: str) -> None:
        """*obj* changed: every path-keyed cache on the hub — this
        decision cache, the dentry cache and the fused verdict table —
        drops what it holds about *obj* and (for paths) anything
        beneath it, since a chmod on a directory changes the search
        permission of every descendant walk."""
        self.generations.invalidate_path(obj)

    def _invalidate_prefix(self, obj: str) -> None:
        if self._cache.invalidate_prefix(obj):
            self.stats.invalidations += 1

    def flush(self, reason: str = "") -> None:
        """Global invalidation: a policy layer reloaded. The dentry
        cache drops its permission entries in sympathy (its path map
        is policy-independent and stays warm); the policy-generation
        bump orphans every fused fast-path verdict at once."""
        self._cache.clear()
        self.stats.flushes += 1
        self.generations.bump_policy()
        if self._dcache is not None:
            self._dcache.flush_permissions()

    def cache_len(self) -> int:
        return len(self._cache)

    # ------------------------------------------------------------------
    # Notifications and audit
    # ------------------------------------------------------------------
    def notify(self, hook: str, *args: Any) -> None:
        """Side-effect-only hooks (task_alloc, bprm_committing_creds)."""
        self.lsm.notify(hook, *args)

    def _record(self, req: AccessRequest, decision: Decision, cached: bool) -> None:
        # Positional row matching AuditEntry field order (minus seq) —
        # this runs on every cache hit, so no dataclass construction.
        cred = req.task.cred
        self.audit.record((
            self._clock(), req.task.pid, cred.ruid, cred.euid,
            req.hook, req.obj, req.mask,
            decision.verdict.value, decision.layer, cached,
            decision.errno.name if decision.errno is not None else "",
            decision.context,
        ))

    def render_audit(self, last: Optional[int] = None) -> str:
        return self.audit.render(last)
