"""A reverse index from object paths to cache keys.

Every path-keyed cache in the kernel (the decision cache, the dentry
cache, the fused fast-path table) supports *prefix invalidation*:
"drop everything cached about ``/a/b`` or anything beneath it". The
original implementations answered that with a full key scan — O(cache
size) per namespace mutation, which the fleet engine's create/unlink
churn turns into the single hottest path in the whole simulator
(three ~full-table scans per mutation at ~12k keys each).

:class:`PathIndex` makes invalidation proportional to the number of
entries actually dropped. It keeps two maps:

* ``path -> {cache keys}`` — the keys whose object is exactly *path*;
* ``parent path -> {child paths}`` — a lazily-built tree over every
  indexed path, including intermediate directories, so the
  descendants of an invalidation root are reachable by traversal
  rather than by scanning.

The tree self-prunes: :meth:`collect` consumes the entire subtree it
traverses (all its keys are being dropped anyway) and unlinks the
root from its parent, so churn on session-private paths cannot grow
the index without bound.

Objects that are not absolute paths (capability and socket objects
like ``cap:CAP_SYS_ADMIN``) have no parent and therefore only ever
match exactly — the same outcome the prefix scan gave them.

:class:`BoundedTable` is the one table type behind every kernel cache:
a FIFO-bounded ``OrderedDict`` that keeps its own :class:`PathIndex`
and asks its fault site before each insert.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Set, Tuple


class PathIndex:
    """Reverse map from a path to the cache keys it appears in."""

    __slots__ = ("_keys", "_children")

    def __init__(self) -> None:
        self._keys: Dict[str, Set[Tuple]] = {}
        self._children: Dict[str, Set[str]] = {}

    @staticmethod
    def _parent(path: str) -> str:
        """The parent directory, or '' when *path* has none (the root,
        or a non-path object like ``cap:...``)."""
        if not path.startswith("/") or path == "/":
            return ""
        head = path.rsplit("/", 1)[0]
        return head or "/"

    def add(self, path: str, key: Tuple) -> None:
        group = self._keys.get(path)
        if group is None:
            group = self._keys[path] = set()
            # Link the path to its ancestors, creating intermediate
            # nodes as needed; stop at the first ancestor that already
            # knows this branch (amortizes to O(1) per add).
            child = path
            while True:
                parent = self._parent(child)
                if not parent:
                    break
                siblings = self._children.get(parent)
                if siblings is None:
                    self._children[parent] = {child}
                elif child in siblings:
                    break
                else:
                    siblings.add(child)
                child = parent
        group.add(key)

    def discard(self, path: str, key: Tuple) -> None:
        """Forget one key (cache eviction). The path's tree node stays
        until an invalidation traversal prunes it."""
        group = self._keys.get(path)
        if group is not None:
            group.discard(key)
            if not group:
                del self._keys[path]

    def collect(self, path: str) -> List[Tuple]:
        """Every key under *path* (inclusive), removed from the index.
        The traversed subtree is consumed wholesale — the caller is
        dropping all of it from the cache."""
        path = path.rstrip("/") or "/"
        out: List[Tuple] = []
        stack = [path]
        while stack:
            node = stack.pop()
            group = self._keys.pop(node, None)
            if group:
                out.extend(group)
            kids = self._children.pop(node, None)
            if kids:
                stack.extend(kids)
        parent = self._parent(path)
        if parent:
            siblings = self._children.get(parent)
            if siblings is not None:
                siblings.discard(path)
        return out

    def clear(self) -> None:
        self._keys.clear()
        self._children.clear()

    def __len__(self) -> int:
        return sum(len(group) for group in self._keys.values())


class BoundedTable(OrderedDict):
    """An ``OrderedDict`` bounded at *max_entries* with FIFO eviction.

    A hot probe is the inherited C ``get``; a hit never reorders. When
    *path_at* names the key field holding an object path, the table
    keeps a :class:`PathIndex` over that field, so
    :meth:`invalidate_prefix` drops exactly the affected keys. An armed
    *fault_site* vetoes an insert (keyed by that path, if any): ``put``
    returns ``False`` and the caller counts an allocation failure —
    the answer it already holds just stays uncached.
    """

    def __init__(self, max_entries: int, path_at: Optional[int] = None,
                 fault_site=None) -> None:
        super().__init__()
        self.max_entries = max_entries
        self.path_at = path_at
        self.fault_site = fault_site
        self.index = PathIndex() if path_at is not None else None

    def put(self, key: Tuple, value) -> bool:
        at = self.path_at
        path = key[at] if at is not None else None
        site = self.fault_site
        if site is not None and site.armed and site.should_fail(path):
            return False
        self[key] = value
        if at is not None:
            self.index.add(path, key)
        if len(self) > self.max_entries:
            evicted, _ = self.popitem(last=False)
            if at is not None:
                self.index.discard(evicted[at], evicted)
        return True

    def drop(self, key: Tuple) -> None:
        self.pop(key, None)
        if self.path_at is not None:
            self.index.discard(key[self.path_at], key)

    def invalidate_prefix(self, path: str) -> int:
        """Drop every entry whose path is *path* or lies beneath it;
        returns how many went."""
        doomed = self.index.collect(path)
        for key in doomed:
            self.pop(key, None)
        return len(doomed)

    def clear(self) -> None:
        super().clear()
        if self.index is not None:
            self.index.clear()
