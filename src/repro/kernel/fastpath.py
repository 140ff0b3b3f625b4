"""The fused fast-path verdict table.

PRs 1–5 made each layer of the reference monitor individually fast:
the dentry cache memoizes path walks, the decision cache memoizes LSM
verdicts, the AppArmor DFA memoizes rule matching. A warm ``open()``
still pays all three probes, each with its own key build and its own
invalidation scheme. This table is the SELinux-AVC idea taken to its
conclusion: cache the **final** outcome of a whole access — the
errno-or-allow plus the resolved inode — under one key, guarded by
one staleness check.

Key: ``(op|mask, path, sid)``.

* ``op|mask`` — the operation tag (stat/open/perm) with the DAC mask
  or open flags folded into it, so one path can hold distinct verdicts
  per access mode.
* ``path`` — the normalized absolute path, kept at index 1: the
  :class:`~repro.kernel.pathindex.BoundedTable` indexes it so a
  prefix invalidation drops exactly the affected verdicts.
* ``sid`` — the subject id: a never-reused integer the kernel interns
  for each distinct ``(cred_epoch, cred, exe_path)`` triple (see
  ``SyscallMixin._fp_subject``). Epochs are minted by the
  :class:`~repro.kernel.generations.GenerationHub` and never reused,
  so an epoch names one immutable credential commit; the credential
  object and exe path complete the triple for tasks constructed
  outside the kernel's epoch discipline. Hashing the interned int per
  probe replaces re-hashing the credential snapshot, and ``exe_path``
  matters because Protego's binary ACLs make the verdict depend on
  *which program* is asking, not just whose uid.

Each entry stamps the hub's **composed generation** at insert time.
A probe compares two integers: stamp vs. the current composed
generation. Any mount-table change or policy reload advances the
composed generation and thereby orphans every entry at once (counted
as ``stale_evictions`` when next probed); attribute changes and
namespace mutations arrive as **prefix invalidations** through the
hub's path fan-out, exactly like the dcache's.

What may be fused is decided by the *insert* side (the syscall layer):
only verdicts whose walk left a dentry behind (the dcache's own
cacheability certificate — no symlink was crossed, so prefix
invalidation covers the entry) and whose LSM decision reported
``fastpath_ok`` (no complain-mode profile, no recency-dependent
Protego rule, no walk-shaped errno). Everything else falls through to
the layered walk, which remains the oracle.

The insert is a fault-injection point (``fastpath.insert``): under an
injected fault the insert becomes a counted no-op — the syscall
already holds the layered verdict, so degradation is a slower answer,
never a different one.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.kernel.pathindex import BoundedTable

#: Operation tags. The low 3 bits carry the DAC mask (R_OK|W_OK|X_OK
#: ≤ 7) for permission checks; open() folds its flag word in higher
#: bits instead.
OP_STAT = 0x10
OP_OPEN = 0x20
OP_PERM = 0x40


class FastVerdict:
    """One fused verdict: allow (with the resolved inode) or deny
    (with errno + attribution context), plus the audit row suffix
    recorded when the verdict is served from the table."""

    __slots__ = ("inode", "errno", "context", "audit_suffix", "stamp")

    def __init__(self, inode, errno, context: str,
                 audit_suffix: Optional[Tuple], stamp: int):
        self.inode = inode
        self.errno = errno
        self.context = context
        self.audit_suffix = audit_suffix
        self.stamp = stamp


class FastPathStats:
    __slots__ = ("hits", "misses", "stale_evictions",
                 "insertions", "invalidations", "flushes", "alloc_failures")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.stale_evictions = 0
        self.insertions = 0
        self.invalidations = 0
        self.flushes = 0
        self.alloc_failures = 0

    @property
    def lookups(self) -> int:
        """Every probe ends in a hit or a miss, so the total is
        derived — the hot path pays one counter bump, not two."""
        return self.hits + self.misses


class FastPathTable:
    """The per-kernel fused verdict table."""

    def __init__(self, generations, max_entries: int = 8192, fault_site=None):
        self.generations = generations
        self.enabled = True
        self.stats = FastPathStats()
        self._table = BoundedTable(max_entries, path_at=1,
                                   fault_site=fault_site)
        generations.subscribe_paths(self.invalidate_prefix)

    def __len__(self) -> int:
        return len(self._table)

    # ------------------------------------------------------------------
    # The hot path: one dict get and two int compares (a hit never
    # reorders the FIFO table).
    # ------------------------------------------------------------------
    def get(self, key: Tuple) -> Optional[FastVerdict]:
        stats = self.stats
        entry = self._table.get(key)
        if entry is None:
            stats.misses += 1
            return None
        if entry.stamp != self.generations.generation:
            self._table.drop(key)
            stats.stale_evictions += 1
            stats.misses += 1
            return None
        stats.hits += 1
        return entry

    def put(self, key: Tuple, inode, errno, context: str,
            audit_suffix: Optional[Tuple]) -> None:
        # Under a fault the caller already holds the layered verdict;
        # the table just declines to remember it.
        if self._table.put(key, FastVerdict(inode, errno, context,
                                            audit_suffix,
                                            self.generations.generation)):
            self.stats.insertions += 1
        else:
            self.stats.alloc_failures += 1

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate_prefix(self, path: str) -> None:
        """Drop every verdict for *path* or anything beneath it (the
        hub's path fan-out lands here)."""
        self.stats.invalidations += self._table.invalidate_prefix(path)

    def flush(self) -> None:
        self._table.clear()
        self.stats.flushes += 1

    # ------------------------------------------------------------------
    def render(self) -> str:
        """The /proc/protego/fastpath payload (matches the dcache /
        policy stat-file shape)."""
        s = self.stats
        denials = sum(1 for v in self._table.values() if v.errno is not None)
        rate = s.hits / s.lookups if s.lookups else 0.0
        return (
            f"entries={len(self._table)} denials={denials} "
            f"max_entries={self._table.max_entries} "
            f"enabled={int(self.enabled)}\n"
            f"{self.generations.render()}\n"
            f"lookups={s.lookups} hits={s.hits} misses={s.misses} "
            f"hit_rate={rate:.3f}\n"
            f"stale_evictions={s.stale_evictions} insertions={s.insertions} "
            f"invalidations={s.invalidations} flushes={s.flushes} "
            f"alloc_failures={s.alloc_failures}\n"
        )
