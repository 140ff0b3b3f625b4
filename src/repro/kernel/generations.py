"""One generation authority for every access-relevant cache.

PRs 1–5 each grew an ad-hoc counter scheme: the dentry cache kept its
own mount epoch, the security server minted credential epochs from a
private ``itertools.count``, and policy reloads were only visible as
whole-cache flushes. The :class:`GenerationHub` folds them into named
domains — ``mount``, ``policy``, ``cred`` — and is the **only
invalidation route** for every cache that depends on them:

* ``bump_mount`` / ``bump_policy`` call every bump subscriber with the
  domain name, and each cache empties what depends on that domain at
  once. Nothing is left behind to be found stale on a later probe, so
  a hit is simply an entry being present, and a missed invalidation
  can only be a missing subscription.
* ``invalidate_path`` calls every path subscriber (the decision cache,
  the dentry cache, the fused table), so each namespace or attribute
  mutation has a single invalidation call site.

Credential commits call no subscriber: the credential epoch is part
of every subject-keyed entry, so a setuid orphans its own entries by
keying (clearing the world on every setuid would evict every other
subject's verdicts).
"""

from __future__ import annotations

from typing import Callable, List

#: The domain names a bump subscriber is called with.
MOUNT = "mount"
POLICY = "policy"


class GenerationHub:
    """Named generation domains plus the invalidation fan-out.

    * :attr:`mount` — the mount-table generation; bumped by exactly 1
      per mount/umount.
    * :attr:`policy` — the policy generation; bumped on every security
      server flush (profile (un)load, /proc policy write, module
      registration).
    * :attr:`cred` — the credential-epoch allocator; every credential
      commit (and every task creation) draws a fresh epoch so a
      ``(cred_epoch, cred)`` pair names one immutable subject identity.
    """

    __slots__ = ("mount", "policy", "cred", "_bump_listeners",
                 "_path_listeners")

    def __init__(self) -> None:
        self.mount = 0
        self.policy = 0
        self.cred = 0
        self._bump_listeners: List[Callable[[str], object]] = []
        self._path_listeners: List[Callable[[str], object]] = []

    # ------------------------------------------------------------------
    # Domain bumps
    # ------------------------------------------------------------------
    def subscribe_bumps(self, listener: Callable[[str], object]) -> None:
        """Register a cache's bump handler; it is called with
        :data:`MOUNT` or :data:`POLICY`, in subscription order."""
        self._bump_listeners.append(listener)

    def bump_mount(self) -> int:
        """The mount table changed: every subscriber drops what a walk
        through the old table produced."""
        self.mount += 1
        for listener in self._bump_listeners:
            listener(MOUNT)
        return self.mount

    def bump_policy(self) -> int:
        """A policy layer reloaded: every subscriber drops what the old
        policy decided."""
        self.policy += 1
        for listener in self._bump_listeners:
            listener(POLICY)
        return self.policy

    def next_cred_epoch(self) -> int:
        """Mint a fresh credential epoch (a credential commit or a new
        task). Epochs are globally unique, so a fused key carrying
        ``(cred_epoch, cred)`` can never alias two subjects."""
        self.cred += 1
        return self.cred

    # ------------------------------------------------------------------
    # Path-prefix invalidation fan-out
    # ------------------------------------------------------------------
    def subscribe_paths(self, listener: Callable[[str], object]) -> None:
        """Register a path-keyed cache's ``invalidate_prefix``."""
        self._path_listeners.append(listener)

    def invalidate_path(self, path: str) -> None:
        """A namespace or attribute mutation under *path*: tell every
        subscribed cache to drop the prefix."""
        for listener in self._path_listeners:
            listener(path)

    # ------------------------------------------------------------------
    def render(self) -> str:
        """One line of generation state (embedded in /proc payloads)."""
        return f"mount={self.mount} policy={self.policy} cred={self.cred}"

    def __repr__(self) -> str:
        return f"GenerationHub({self.render()})"
