"""BoundedTable: the one table type behind every kernel cache.

The fused fast path, the dentry map, the per-credential permission
maps, the decision cache and the netfilter flow cache all sit on it:
a FIFO bound, a path index over one key field, an insert-time fault
veto, and one invalidation route through the generation hub.
"""

import random

from repro.kernel import Kernel
from repro.kernel.fault import FaultSite
from repro.kernel.pathindex import BoundedTable


def _indexed_keys(table):
    return {key for keys in table.index._keys.values() for key in keys}


def test_fifo_eviction_at_the_bound():
    table = BoundedTable(3, path_at=1)
    for i in range(3):
        assert table.put((i, f"/p{i}"), i)
    assert table.get((0, "/p0")) == 0  # a hit does not reorder
    table.put((3, "/p3"), 3)
    assert list(table) == [(1, "/p1"), (2, "/p2"), (3, "/p3")]
    assert _indexed_keys(table) == set(table)


def test_index_tracks_the_table_under_random_operations():
    rng = random.Random(7)
    table = BoundedTable(16, path_at=1)
    paths = ["/a", "/a/b", "/a/b/c", "/a/x", "/d", "/d/e", "cap:CAP_NET_RAW"]
    for _ in range(2000):
        op = rng.random()
        key = (rng.randrange(8), rng.choice(paths))
        if op < 0.6:
            table.put(key, None)
        elif op < 0.8:
            table.drop(key)
        elif op < 0.98:
            table.invalidate_prefix(rng.choice(paths))
        else:
            table.clear()
        assert len(table) <= 16
        assert _indexed_keys(table) == set(table)


def test_invalidate_prefix_drops_the_subtree_only():
    table = BoundedTable(8, path_at=0)
    for path in ("/a", "/a/b", "/a/b/c", "/ab", "/x"):
        table.put((path,), path)
    assert table.invalidate_prefix("/a") == 3
    assert set(table) == {("/ab",), ("/x",)}


def test_armed_fault_site_vetoes_the_insert():
    site = FaultSite("test.alloc").configure(only=["/vetoed"])
    table = BoundedTable(4, path_at=1, fault_site=site)
    assert not table.put((0, "/vetoed"), "v")
    assert table.put((0, "/kept"), "k")
    assert set(table) == {(0, "/kept")}
    assert _indexed_keys(table) == {(0, "/kept")}
    pathless = BoundedTable(4, fault_site=FaultSite("test.alloc").configure())
    assert not pathless.put(("k",), "v")
    assert len(pathless) == 0


def test_procfs_graft_drops_cached_decisions_under_it():
    kernel = Kernel()
    root = kernel.root_task()
    kernel.procfs.register("graft/a", read_fn=lambda: b"a\n")
    kernel.sys_close(root, kernel.sys_open(root, "/proc/graft/a"))
    server = kernel.security_server
    assert "/proc/graft/a" in {key[5] for key in server._cache}
    invalidations = server.stats.invalidations
    # Registration grafts a file in without the syscall layer; the
    # VFS announces it on the hub, which the decision cache hears.
    kernel.procfs.register("graft/b", read_fn=lambda: b"b\n")
    assert "/proc/graft/a" not in {key[5] for key in server._cache}
    assert server.stats.invalidations == invalidations + 1
