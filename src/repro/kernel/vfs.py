"""Virtual filesystem: path resolution, mounts, DAC permission checks.

The VFS owns the namespace: a root filesystem plus a mount table
grafting other filesystems onto directories (the object of the paper's
motivating ``mount`` example). Path resolution follows symlinks with a
loop limit and crosses mountpoints exactly as Linux's walk does, so
"mount over /etc" attacks behave faithfully.

All resolution funnels through :meth:`VFS.lookup`, which performs the
component walk *and* the per-directory search-permission checks in a
single pass and memoizes the result in a Linux-style dentry cache
(:mod:`repro.kernel.dcache`): positive and negative path entries keyed
on the mount epoch, permission results keyed on the caller's
credential epoch and each directory's generation. The historical
entry points (``resolve``, ``path_permission``, ``exists``) remain as
thin wrappers.
"""

from __future__ import annotations

import dataclasses
import itertools
import posixpath
from typing import Dict, List, Optional, Tuple

from repro.kernel import modes
from repro.kernel.capabilities import Capability
from repro.kernel.cred import Credentials
from repro.kernel.dcache import PERM_MISS, Dentry, DentryCache
from repro.kernel.errno import Errno, SyscallError
from repro.kernel.generations import GenerationHub
from repro.kernel.inode import Inode, make_dir

MAX_SYMLINK_DEPTH = 40

_fs_ids = itertools.count(1)


class Filesystem:
    """One mounted (or mountable) filesystem instance."""

    def __init__(self, fstype: str, source: str = "", flags: int = 0):
        self.fs_id = next(_fs_ids)
        self.fstype = fstype
        self.source = source
        self.flags = flags
        self.root = make_dir()
        #: Installed by :meth:`VFS.attach`; pseudo-filesystems call it
        #: when they graft files in at runtime (procfs registration
        #: mutates directories without going through the syscall
        #: layer, so the dcache must be told directly).
        self.notify_change = None

    def is_readonly(self) -> bool:
        return bool(self.flags & modes.MS_RDONLY)

    def is_nosuid(self) -> bool:
        return bool(self.flags & modes.MS_NOSUID)

    def __repr__(self) -> str:
        return f"Filesystem({self.fstype!r}, source={self.source!r})"


@dataclasses.dataclass
class Mount:
    """One row of the mount table."""

    mountpoint: str
    fs: Filesystem
    flags: int
    mounter_uid: int


#: normalize() memo. Normalization is pure and syscalls re-present the
#: same path strings constantly, so a dict probe replaces the
#: canonical-form scan on the warm path. Bounded by wholesale clear.
NORM_MEMO: dict = {}


def normalize(path: str) -> str:
    """Collapse ``.``/``..``/double slashes into a canonical abs path."""
    norm = NORM_MEMO.get(path)
    if norm is not None:
        return norm
    if not path.startswith("/"):
        raise SyscallError(Errno.EINVAL, f"relative path {path!r}")
    # Already-canonical paths (the common case on the lookup hot path)
    # skip normpath; anything suspicious falls through to it.
    if "//" not in path and "/." not in path and (path == "/"
                                                  or not path.endswith("/")):
        norm = path
    else:
        norm = posixpath.normpath(path)
    if len(NORM_MEMO) > 16384:
        NORM_MEMO.clear()
    NORM_MEMO[path] = norm
    return norm


def split_path(path: str) -> List[str]:
    norm = normalize(path)
    if norm == "/":
        return []
    return norm.strip("/").split("/")


class _WalkState:
    """Per-lookup bookkeeping the recursive walk threads through."""

    __slots__ = ("dirs", "crossed_symlink")

    def __init__(self):
        self.dirs: List[Inode] = []
        self.crossed_symlink = False


class VFS:
    """The kernel's file namespace."""

    def __init__(self, generations: Optional[GenerationHub] = None):
        self.rootfs = Filesystem("rootfs", source="rootfs")
        self.mounts: Dict[str, Mount] = {}
        self.generations = generations if generations is not None \
            else GenerationHub()
        self.dcache = DentryCache(generations=self.generations)
        # Longest-prefix trie over the mount table; each node maps a
        # path component to a child node, with the mount itself (if
        # any) stored under the "" key. Rebuilt on attach/detach —
        # mount-table changes are rare, covering lookups are hot.
        self._mount_trie: Dict = {}

    # ------------------------------------------------------------------
    # Mount table
    # ------------------------------------------------------------------
    def attach(self, mountpoint: str, fs: Filesystem, flags: int = 0, mounter_uid: int = 0) -> None:
        """Graft *fs* onto *mountpoint* (the mechanism under mount(2)).

        Policy (capabilities, Protego whitelists) lives in the syscall
        layer and LSM; this is the bare mechanism.
        """
        mountpoint = normalize(mountpoint)
        if mountpoint != "/":
            inode = self.resolve(mountpoint)
            if not inode.is_dir():
                raise SyscallError(Errno.ENOTDIR, mountpoint)
        if mountpoint in self.mounts:
            raise SyscallError(Errno.EBUSY, mountpoint)
        self.mounts[mountpoint] = Mount(mountpoint, fs, flags, mounter_uid)
        fs.notify_change = (
            lambda mp=mountpoint: self._notify_path_change(mp))
        self._note_mount_change()

    def detach(self, mountpoint: str) -> Mount:
        mountpoint = normalize(mountpoint)
        try:
            mount = self.mounts.pop(mountpoint)
        except KeyError:
            raise SyscallError(Errno.EINVAL, f"not mounted: {mountpoint}") from None
        mount.fs.notify_change = None
        self._note_mount_change()
        return mount

    def _notify_path_change(self, path: str) -> None:
        """A pseudo-filesystem grafted files in under *path*: fan the
        invalidation out to every path-keyed cache on the hub."""
        self.generations.invalidate_path(path)

    def _note_mount_change(self) -> None:
        """The mount table changed: bump the global mount epoch (which
        orphans every cached walk) and rebuild the covering trie."""
        self.dcache.bump_mount_epoch()
        trie: Dict = {}
        for mp, mount in self.mounts.items():
            node = trie
            for component in split_path(mp):
                node = node.setdefault(component, {})
            node[""] = mount
        self._mount_trie = trie

    def mount_at(self, mountpoint: str) -> Optional[Mount]:
        return self.mounts.get(normalize(mountpoint))

    def mount_covering(self, path: str) -> Optional[Mount]:
        """The innermost mount whose mountpoint is a prefix of *path*.

        A longest-prefix walk over the mount trie: O(path components)
        instead of the old O(mounts) scan over the whole table.
        """
        node = self._mount_trie
        best = node.get("")
        for component in split_path(path):
            node = node.get(component)
            if node is None:
                break
            mount = node.get("")
            if mount is not None:
                best = mount
        return best

    # ------------------------------------------------------------------
    # Path resolution: the single walk
    # ------------------------------------------------------------------
    def lookup(
        self,
        path: str,
        cred: Optional[Credentials] = None,
        mask: int = modes.F_OK,
        follow_final_symlink: bool = True,
        cred_epoch: int = 0,
    ) -> Inode:
        """Resolve *path* and (when *cred* is given) enforce search
        permission on every directory plus *mask* on the final inode —
        one walk, one entry point, memoized.

        A dcache hit revalidates permissions from the per-directory
        permission cache instead of re-walking; a negative hit raises
        ENOENT after the same search-permission checks a real walk
        would have performed. Cold walks (and every walk that crosses
        a symlink) run the component loop once.
        """
        norm = normalize(path)
        dcache = self.dcache
        if dcache.enabled:
            dcache.stats.lookups += 1
            entry = dcache.get(norm, follow_final_symlink)
            if entry is not None:
                if cred is not None:
                    perms = dcache.perms_for(cred_epoch, cred)
                    memo_key = (entry, mask)
                    signature = entry.signature()
                    if perms.get(memo_key) != signature:
                        for directory in entry.dirs:
                            self._cached_permission(
                                perms, cred, directory, modes.X_OK)
                        if entry.inode is not None and mask:
                            self._cached_permission(
                                perms, cred, entry.inode, mask)
                        perms[memo_key] = signature
                    else:
                        dcache.stats.perm_hits += 1
                if entry.errno is not None:
                    dcache.stats.negative_hits += 1
                    raise SyscallError(entry.errno, norm)
                dcache.stats.hits += 1
                return entry.inode
            dcache.stats.misses += 1
        dcache.stats.walks += 1
        state = _WalkState()
        try:
            inode, _parent, _leaf = self._walk(
                norm, follow_final_symlink, cred=cred, mask=mask,
                cred_epoch=cred_epoch, state=state)
        except SyscallError as exc:
            if (dcache.enabled and not state.crossed_symlink
                    and exc.errno_value is Errno.ENOENT):
                dcache.put(norm, follow_final_symlink,
                           Dentry(None, tuple(state.dirs), Errno.ENOENT))
            raise
        if dcache.enabled and not state.crossed_symlink:
            dcache.put(norm, follow_final_symlink,
                       Dentry(inode, tuple(state.dirs)))
        return inode

    def walk_cached(self, path: str) -> bool:
        """Whether *path*'s most recent walk left a (positive or
        negative) dentry behind. This is the fused fast path's
        cacheability certificate: a dentry exists iff the walk did not
        cross a symlink, which is exactly the condition under which
        prefix invalidation covers everything the verdict depends on."""
        return (self.dcache.enabled
                and self.dcache.get(normalize(path), True) is not None)

    def lookup_verdict(
        self,
        path: str,
        cred: Optional[Credentials] = None,
        mask: int = modes.F_OK,
        cred_epoch: int = 0,
    ) -> Tuple[Optional[Inode], Optional[Errno], str, Tuple[bool, int]]:
        """:meth:`lookup` in verdict form: ``(inode-or-None, errno-or-
        None, context, (cacheable, mount_generation))``. The trailing
        dependency tuple tells a fused-table caller whether this walk
        may be memoized under prefix invalidation and which mount
        generation it observed — the ``(verdict, dependency-
        generations)`` shape the fast path records."""
        try:
            inode = self.lookup(path, cred=cred, mask=mask,
                                cred_epoch=cred_epoch)
        except SyscallError as exc:
            return (None, exc.errno_value, exc.context,
                    (self.walk_cached(path), self.generations.mount))
        return (inode, None, "",
                (self.walk_cached(path), self.generations.mount))

    def resolve(self, path: str, follow_final_symlink: bool = True) -> Inode:
        """Resolve with no permission enforcement (kernel-internal
        callers); one cached walk."""
        return self.lookup(path, follow_final_symlink=follow_final_symlink)

    def path_permission(self, cred: Credentials, path: str, mask: int,
                        cred_epoch: int = 0) -> Inode:
        """Walk *path* checking execute (search) on every directory,
        then *mask* on the final inode. Returns the final inode.

        Now a wrapper over :meth:`lookup`: the resolution and the
        permission checks happen in the same (cached) walk, and the
        symlink-depth limit applies here too (a loop raises ELOOP, not
        RecursionError).
        """
        return self.lookup(path, cred=cred, mask=mask, cred_epoch=cred_epoch)

    def resolve_parent(self, path: str) -> Tuple[Inode, str]:
        """Resolve the parent directory of *path*; return (dir, leafname)."""
        norm = normalize(path)
        if norm == "/":
            raise SyscallError(Errno.EEXIST, "/")
        parent_path, leaf = posixpath.split(norm)
        parent = self.resolve(parent_path)
        if not parent.is_dir():
            raise SyscallError(Errno.ENOTDIR, parent_path)
        return parent, leaf

    def realpath(self, path: str, _depth: int = 0) -> str:
        """The canonical, symlink-free path of *path* (realpath(3)).

        Walks every component, chasing symlinks with the same depth
        limit as :meth:`lookup`. No permission enforcement — callers
        that need checks walk separately (exec does its X_OK walk
        before canonicalizing). Raises ENOENT/ENOTDIR/ELOOP exactly as
        a resolving walk would.
        """
        if _depth > MAX_SYMLINK_DEPTH:
            raise SyscallError(Errno.ELOOP, path)
        components = split_path(normalize(path))
        current = self.rootfs.root
        mount = self.mounts.get("/")
        if mount is not None:
            current = mount.fs.root
        walked = ""
        for index, name in enumerate(components):
            if not current.is_dir():
                raise SyscallError(Errno.ENOTDIR, walked or "/")
            child = current.lookup(name)
            walked = walked + "/" + name
            covering = self.mounts.get(walked)
            if covering is not None:
                child = covering.fs.root
            if child.is_symlink():
                full = self._symlink_target(walked, child,
                                            components[index + 1:])
                return self.realpath(full, _depth + 1)
            current = child
        return walked or "/"

    @staticmethod
    def _symlink_target(walked: str, link: Inode, rest: List[str]) -> str:
        """The absolute path a traversed symlink redirects the walk to:
        the link target (resolved against the link's directory when
        relative) joined with the not-yet-walked components. The one
        resolution rule both the plain walk and the permission walk
        share."""
        target = link.symlink_target
        if not target.startswith("/"):
            target = posixpath.join(posixpath.dirname(walked) or "/", target)
        return posixpath.join(target, *rest) if rest else target

    def _walk(
        self,
        path: str,
        follow_final_symlink: bool,
        cred: Optional[Credentials] = None,
        mask: int = modes.F_OK,
        cred_epoch: int = 0,
        _depth: int = 0,
        state: Optional[_WalkState] = None,
    ) -> Tuple[Inode, Optional[Inode], str]:
        if _depth > MAX_SYMLINK_DEPTH:
            raise SyscallError(Errno.ELOOP, path)
        components = split_path(path)
        current = self.rootfs.root
        mount = self.mounts.get("/")
        if mount is not None:
            current = mount.fs.root
        parent: Optional[Inode] = None
        walked = ""
        for index, name in enumerate(components):
            if not current.is_dir():
                raise SyscallError(Errno.ENOTDIR, walked or "/")
            if cred is not None:
                self.check_permission(cred, current, modes.X_OK, cred_epoch)
            if state is not None:
                state.dirs.append(current)
            child = current.lookup(name)
            walked = walked + "/" + name
            covering = self.mounts.get(walked)
            if covering is not None:
                child = covering.fs.root
            is_last = index == len(components) - 1
            if child.is_symlink() and (follow_final_symlink or not is_last):
                if state is not None:
                    state.crossed_symlink = True
                full = self._symlink_target(walked, child, components[index + 1:])
                return self._walk(full, follow_final_symlink, cred=cred,
                                  mask=mask, cred_epoch=cred_epoch,
                                  _depth=_depth + 1, state=state)
            parent, current = current, child
        if cred is not None and mask:
            self.check_permission(cred, current, mask, cred_epoch)
        return current, parent, components[-1] if components else "/"

    def exists(self, path: str) -> bool:
        try:
            self.resolve(path)
            return True
        except SyscallError:
            return False

    # ------------------------------------------------------------------
    # Discretionary access control
    # ------------------------------------------------------------------
    def dac_permission(self, cred: Credentials, inode: Inode, mask: int) -> None:
        """Classic owner/group/other permission check plus DAC caps.

        Raises EACCES when *cred* may not access *inode* with *mask*
        (an ``R_OK``/``W_OK``/``X_OK`` combination), mirroring
        ``generic_permission()``.
        """
        if mask == modes.F_OK:
            return
        if inode.uid == cred.fsuid:
            granted = (inode.mode >> 6) & 0o7
        elif cred.in_group(inode.gid):
            granted = (inode.mode >> 3) & 0o7
        else:
            granted = inode.mode & 0o7
        if granted & mask == mask:
            return
        # CAP_DAC_OVERRIDE bypasses rwx except execute on non-executables.
        if cred.has_cap(Capability.CAP_DAC_OVERRIDE):
            if not (mask & modes.X_OK) or inode.is_dir() or (inode.mode & 0o111):
                return
        # CAP_DAC_READ_SEARCH bypasses read, and search on directories.
        if cred.has_cap(Capability.CAP_DAC_READ_SEARCH):
            if mask == modes.R_OK:
                return
            if inode.is_dir() and not (mask & modes.W_OK):
                return
        raise SyscallError(Errno.EACCES, f"dac denied mask={mask} on ino {inode.ino}")

    def check_permission(self, cred: Credentials, inode: Inode, mask: int,
                         cred_epoch: int = 0) -> None:
        """:meth:`dac_permission` behind the per-directory permission
        cache: results keyed on ``(inode, generation, mask)`` under the
        caller's ``(cred epoch, cred)`` map. A chmod/chown bumps the
        inode's generation; a credential commit bumps the epoch —
        either orphans the entry."""
        if not mask:
            return
        if not self.dcache.enabled:
            return self.dac_permission(cred, inode, mask)
        perms = self.dcache.perms_for(cred_epoch, cred)
        self._cached_permission(perms, cred, inode, mask)

    def _cached_permission(self, perms: Dict, cred: Credentials,
                           inode: Inode, mask: int) -> None:
        key = (inode.ino, inode.generation, mask)
        errno = perms.get(key, PERM_MISS)
        if errno is PERM_MISS:
            self.dcache.stats.perm_misses += 1
            try:
                self.dac_permission(cred, inode, mask)
            except SyscallError as exc:
                perms[key] = exc.errno_value
                raise
            perms[key] = None
            return
        self.dcache.stats.perm_hits += 1
        if errno is not None:
            raise SyscallError(errno, f"dac denied mask={mask} on ino {inode.ino}")
