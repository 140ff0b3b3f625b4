"""A Linux-style dentry cache for the simulated VFS.

The simulator's Table 5 gap (stat +12.6%, mount/umnt +30% where the
paper reports ~0-1%) is walk cost, not policy cost: every path-taking
syscall re-walked each component, and most walked *twice* — once to
resolve and once to check search permission. This module memoizes the
walk the way Linux's dcache does, with the same three invalidation
generations the PR 1 decision cache established:

* **mount epoch** — a global generation embedded in every path key,
  bumped on any mount-table change (mount/umount/pivot). Old entries
  become unreachable at once; the table is dropped eagerly to bound
  memory.
* **path prefix** — `invalidate_prefix(path)` on namespace mutations
  (create/unlink/rename/rmdir/symlink/link) and attribute changes
  (chmod/chown) drops the path's entries and every descendant's. The
  cache subscribes it to the generation hub's path fan-out, so the
  syscall layer keeps a single invalidation call site per mutation.
* **cred epoch** — permission entries are keyed on the caller's
  credential epoch (bumped by setuid/setgid/setgroups/exec commits),
  so a credential change orphans its permission entries without
  touching the credential-independent path map.

A cached walk stores the final inode *and* the chain of directories
traversed, so a hit revalidates search permission per directory from
the permission cache — `(inode generation, X_OK)` under the caller's
`(cred epoch, cred)` — instead of re-walking. Negative entries
memoize ENOENT (and only ENOENT: the repeated `exists()` probes of
O_CREAT opens and daemon polls), and are cleared by the prefix
invalidation any create performs. Walks that cross a symlink are
never cached: their result depends on paths other than the key, which
prefix invalidation could not see.

Counters mirror ``/sys/kernel/debug``-style dcache stats and are
rendered at ``/proc/protego/dcache`` next to the audit ring.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

from repro.kernel.errno import Errno
from repro.kernel.fault import SITE_DCACHE_ALLOC, FaultSite
from repro.kernel.generations import GenerationHub
from repro.kernel.inode import Inode
from repro.kernel.pathindex import BoundedTable

#: Sentinel distinguishing "no cached permission entry" from a cached
#: ALLOW (stored as None).
PERM_MISS = object()


@dataclasses.dataclass
class DcacheStats:
    """Dentry-cache counters (the /proc/protego/dcache payload)."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    negative_hits: int = 0
    #: Full component-by-component walks performed (cold lookups and
    #: symlink traversals). The acceptance bar for the single-walk
    #: refactor: one walk per cold path-taking syscall, zero per hit.
    walks: int = 0
    perm_hits: int = 0
    perm_misses: int = 0
    invalidations: int = 0
    flushes: int = 0
    #: Insertions refused by an injected allocation failure — the walk
    #: result was still correct, it just stayed uncached.
    alloc_failures: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class Dentry:
    """One cached walk: the final inode (or a negative errno) plus the
    directories traversed, for per-hit permission revalidation."""

    __slots__ = ("inode", "dirs", "errno")

    def __init__(self, inode: Optional[Inode], dirs: Tuple[Inode, ...],
                 errno: Optional[Errno] = None):
        self.inode = inode
        self.dirs = dirs
        self.errno = errno

    @property
    def negative(self) -> bool:
        return self.errno is not None

    def signature(self) -> Tuple:
        """The generation vector of every inode this walk touched.
        A hit whose credentials already validated this exact vector
        (memoized under ``(entry, mask)`` in the caller's permission
        map) skips the per-directory revalidation loop entirely; any
        chmod/chown along the chain changes the vector."""
        final = self.inode
        return (tuple(d.generation for d in self.dirs),
                final.generation if final is not None else -1)

    def __repr__(self) -> str:
        if self.negative:
            return f"Dentry(negative {self.errno.name}, {len(self.dirs)} dirs)"
        return f"Dentry(ino={self.inode.ino}, {len(self.dirs)} dirs)"


class DentryCache:
    """Memoized path walks plus a per-directory permission cache."""

    def __init__(self, max_entries: int = 4096, max_creds: int = 256,
                 generations: Optional[GenerationHub] = None):
        self.enabled = True
        #: The shared generation authority; the mount-table generation
        #: (part of every path key) lives there so the fused fast path
        #: sees the same epoch this cache keys on.
        self.generations = generations if generations is not None \
            else GenerationHub()
        #: Simulated dentry-allocation failure: an armed site makes
        #: :meth:`put` and a new permission map counted no-ops, so the
        #: cache degrades to uncached walks — never to a wrong answer.
        #: Rebound to the kernel's shared injector at boot.
        site = FaultSite(SITE_DCACHE_ALLOC)
        #: (mount_epoch, path, follow) -> Dentry
        self._entries = BoundedTable(max_entries, path_at=1, fault_site=site)
        #: (cred_epoch, cred) -> {(ino, generation, mask) -> errno|None}
        self._perms = BoundedTable(max_creds, fault_site=site)
        #: One-slot (epoch, cred, map) memo for the last caller: the
        #: identity check skips the keyed probe, whose equal-hash
        #: collisions pay a full credential comparison per lookup.
        self._last_perms: Optional[Tuple] = None
        self.stats = DcacheStats()
        self.generations.subscribe_paths(self.invalidate_prefix)

    @property
    def fault_site(self) -> FaultSite:
        return self._entries.fault_site

    @fault_site.setter
    def fault_site(self, site: FaultSite) -> None:
        self._entries.fault_site = self._perms.fault_site = site

    @property
    def mount_epoch(self) -> int:
        """The mount-table generation (hub-owned; part of every key)."""
        return self.generations.mount

    # ------------------------------------------------------------------
    # Path map
    # ------------------------------------------------------------------
    def get(self, path: str, follow: bool) -> Optional[Dentry]:
        return self._entries.get((self.mount_epoch, path, follow))

    def put(self, path: str, follow: bool, entry: Dentry) -> None:
        if not self._entries.put((self.mount_epoch, path, follow), entry):
            self.stats.alloc_failures += 1

    # ------------------------------------------------------------------
    # Permission cache
    # ------------------------------------------------------------------
    def perms_for(self, cred_epoch: int, cred) -> Dict:
        """The permission map for one credential generation; created on
        first use, FIFO-bounded across credentials."""
        last = self._last_perms
        if (last is not None and last[0] == cred_epoch
                and last[1] is cred):
            return last[2]
        key = (cred_epoch, cred)
        perms = self._perms.get(key)
        if perms is None:
            perms = {}
            if not self._perms.put(key, perms):
                # Simulated allocation failure: hand back a throwaway
                # map — this walk's checks run uncached but correct.
                self.stats.alloc_failures += 1
                return perms
        self._last_perms = (cred_epoch, cred, perms)
        return perms

    # ------------------------------------------------------------------
    # Invalidation (the three generations)
    # ------------------------------------------------------------------
    def bump_mount_epoch(self) -> int:
        """The mount table changed: every cached walk is suspect. The
        epoch in the key orphans them; dropping eagerly bounds memory.
        The bump goes through the hub, which also advances the composed
        generation the fused fast path stamps."""
        epoch = self.generations.bump_mount()
        if self._entries:
            self.stats.invalidations += 1
            self._entries.clear()
        return epoch

    def invalidate_prefix(self, path: str) -> int:
        """Drop *path*'s entries and every descendant's (a rename of a
        directory moves its whole subtree; a chmod changes every walk
        through it). Negative entries die here too — this is what a
        create calls."""
        dropped = self._entries.invalidate_prefix(path)
        if dropped:
            self.stats.invalidations += 1
        return dropped

    def flush_permissions(self) -> None:
        """Drop cached permission results only (a policy reload): the
        credential-independent path map stays warm."""
        self._perms.clear()
        self._last_perms = None

    def flush(self) -> None:
        self._entries.clear()
        self._perms.clear()
        self._last_perms = None
        self.stats.flushes += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def entry_count(self) -> int:
        return len(self._entries)

    def cached_paths(self):
        """The path identities currently cached (tests poke this)."""
        return {key[1] for key in self._entries}

    def render(self) -> str:
        """The /proc/protego/dcache payload."""
        s = self.stats
        return (
            f"entries={len(self._entries)} perm_creds={len(self._perms)} "
            f"mount_epoch={self.mount_epoch} enabled={int(self.enabled)}\n"
            f"lookups={s.lookups} hits={s.hits} misses={s.misses} "
            f"negative_hits={s.negative_hits} hit_rate={s.hit_rate:.3f}\n"
            f"walks={s.walks} perm_hits={s.perm_hits} "
            f"perm_misses={s.perm_misses} "
            f"invalidations={s.invalidations} flushes={s.flushes} "
            f"alloc_failures={s.alloc_failures}\n"
        )
