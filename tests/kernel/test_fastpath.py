"""The fused fast path: verdict table, generation hub, entry gate.

Covers the single-probe plane this refactor added on top of the
layered caches:

* warm stat/open/access served whole from the fused table — the
  dcache and decision cache are never consulted on a hit;
* one composed generation: mount changes and policy reloads orphan
  every fused entry with a single integer bump, credential commits
  orphan by keying (fresh epoch) without evicting other subjects;
* attribute and namespace mutations arrive as prefix invalidations
  through the hub's path fan-out (chmod, create-over-negative);
* O_CREAT opens bypass the table entirely;
* fused denials replay the layered errno, context, and audit row;
* both new fault sites fail closed (a fault slows, never widens);
* the SFIP-style entry gate rejects out-of-mask syscalls with EPERM
  before argument processing, for per-task and per-binary masks;
* /proc/protego/fastpath renders the whole plane, root-only.
"""

import pytest

from repro.core.procfiles import FASTPATH_PROC_PATH
from repro.core.system import System, SystemMode
from repro.kernel import Kernel, modes
from repro.kernel.entry import ALL_MASK, SYSCALLS, mask_for, mask_names
from repro.kernel.errno import Errno, SyscallError
from repro.kernel.fault import SITE_ENTRY_MASK, SITE_FASTPATH_INSERT
from repro.kernel.generations import GenerationHub
from repro.kernel.lsm import HookResult, SecurityModule


@pytest.fixture
def kernel():
    return Kernel()


@pytest.fixture
def root(kernel):
    return kernel.root_task()


@pytest.fixture
def alice(kernel):
    return kernel.user_task(1000, 1000)


def _deep_file(kernel, root, depth=4):
    path = "/d0"
    kernel.sys_mkdir(root, path)
    for i in range(1, depth):
        path = f"{path}/d{i}"
        kernel.sys_mkdir(root, path)
    path = f"{path}/file"
    kernel.write_file(root, path, b"payload\n")
    return path


# ======================================================================
# Fused hits
# ======================================================================
class TestFusedHits:
    def test_warm_stat_is_one_fused_probe(self, kernel, root):
        path = _deep_file(kernel, root)
        kernel.sys_stat(root, path)  # cold: layered walk + insert
        fp, dcache = kernel.fastpath.stats, kernel.vfs.dcache.stats
        server = kernel.security_server.stats
        dcache_before = dcache.hits + dcache.misses
        server_before = server.lookups
        hits_before = fp.hits
        for _ in range(3):
            kernel.sys_stat(root, path)
        assert fp.hits == hits_before + 3
        # The layers below never saw the warm stats.
        assert dcache.hits + dcache.misses == dcache_before
        assert server.lookups == server_before

    def test_warm_open_served_fused(self, kernel, root):
        path = _deep_file(kernel, root)
        fd = kernel.sys_open(root, path)
        kernel.sys_close(root, fd)
        hits_before = kernel.fastpath.stats.hits
        fd = kernel.sys_open(root, path)
        assert kernel.fastpath.stats.hits == hits_before + 1
        assert kernel.sys_read(root, fd, 64) == b"payload\n"[:64]
        kernel.sys_close(root, fd)

    def test_warm_access_served_fused(self, kernel, root):
        path = _deep_file(kernel, root)
        assert kernel.sys_access(root, path, modes.R_OK)
        hits_before = kernel.fastpath.stats.hits
        assert kernel.sys_access(root, path, modes.R_OK)
        assert kernel.fastpath.stats.hits == hits_before + 1

    def test_distinct_masks_get_distinct_entries(self, kernel, root):
        path = _deep_file(kernel, root)
        assert kernel.sys_access(root, path, modes.R_OK)
        entries = len(kernel.fastpath)
        assert kernel.sys_access(root, path, modes.W_OK)
        assert len(kernel.fastpath) == entries + 1

    def test_disabled_table_is_bypassed(self, kernel, root):
        path = _deep_file(kernel, root)
        kernel.fastpath.enabled = False
        kernel.sys_stat(root, path)
        kernel.sys_stat(root, path)
        assert kernel.fastpath.stats.lookups == 0
        assert len(kernel.fastpath) == 0


# ======================================================================
# Staleness: the composed generation
# ======================================================================
class TestGenerationStaleness:
    def test_mount_orphans_every_fused_entry(self, kernel, root):
        path = _deep_file(kernel, root)
        kernel.sys_stat(root, path)
        kernel.sys_stat(root, path)  # fused
        kernel.sys_mkdir(root, "/mnt2")
        kernel.sys_mount(root, "tmpfs", "/mnt2", "tmpfs")
        stale_before = kernel.fastpath.stats.stale_evictions
        kernel.sys_stat(root, path)  # stamp mismatch: layered re-walk
        assert kernel.fastpath.stats.stale_evictions == stale_before + 1
        kernel.sys_umount(root, "/mnt2")
        kernel.sys_stat(root, path)
        assert kernel.fastpath.stats.stale_evictions == stale_before + 2

    def test_stale_fused_probes_drop_their_index_entries(self, kernel, root):
        # sys_stat and sys_open evict a stale entry inline; the path
        # index must lose the key too, or later prefix invalidations
        # count keys that are no longer in the table.
        path = _deep_file(kernel, root)
        kernel.sys_stat(root, path)
        kernel.sys_close(root, kernel.sys_open(root, path))
        kernel.sys_mkdir(root, "/mnt2")
        kernel.sys_mount(root, "tmpfs", "/mnt2", "tmpfs")
        stale_before = kernel.fastpath.stats.stale_evictions
        with kernel.faults.inject(SITE_FASTPATH_INSERT):  # no re-put
            kernel.sys_stat(root, path)
            kernel.sys_close(root, kernel.sys_open(root, path))
        assert kernel.fastpath.stats.stale_evictions == stale_before + 2
        table = kernel.fastpath._table
        indexed = {key for keys in table.index._keys.values() for key in keys}
        assert indexed <= set(table)

    def test_policy_flush_orphans_every_fused_entry(self, kernel, root):
        path = _deep_file(kernel, root)
        kernel.sys_stat(root, path)
        kernel.security_server.flush()
        stale_before = kernel.fastpath.stats.stale_evictions
        kernel.sys_stat(root, path)
        assert kernel.fastpath.stats.stale_evictions == stale_before + 1

    def test_chmod_invalidates_by_prefix(self, kernel, root, alice):
        kernel.sys_mkdir(root, "/pub", mode=0o755)
        kernel.write_file(root, "/pub/readme", b"x")
        kernel.sys_chmod(root, "/pub/readme", 0o644)
        assert kernel.sys_access(alice, "/pub/readme", modes.R_OK)
        assert kernel.sys_access(alice, "/pub/readme", modes.R_OK)  # fused
        kernel.sys_chmod(root, "/pub", 0o700)  # parent: prefix covers child
        assert not kernel.sys_access(alice, "/pub/readme", modes.R_OK)

    def test_setuid_orphans_by_epoch_not_generation(self, kernel, root):
        path = _deep_file(kernel, root)
        task = kernel.root_task("setuid-shell")  # holds CAP_SETUID
        kernel.sys_stat(task, path)
        kernel.sys_stat(root, path)
        generation = kernel.generations.generation
        kernel.sys_setuid(task, 1000)
        # The composed generation did not move: other subjects' fused
        # entries survive the credential commit.
        assert kernel.generations.generation == generation
        hits_before = kernel.fastpath.stats.hits
        kernel.sys_stat(root, path)
        assert kernel.fastpath.stats.hits == hits_before + 1
        # The committing task's own entries are orphaned by keying.
        misses_before = kernel.fastpath.stats.misses
        kernel.sys_stat(task, path)
        assert kernel.fastpath.stats.misses == misses_before + 1


# ======================================================================
# Cacheability edges
# ======================================================================
class TestCacheabilityEdges:
    def test_o_creat_bypasses_the_table(self, kernel, root):
        kernel.sys_mkdir(root, "/tmp2")
        lookups_before = kernel.fastpath.stats.lookups
        fd = kernel.sys_open(root, "/tmp2/new", modes.O_WRONLY | modes.O_CREAT)
        kernel.sys_close(root, fd)
        assert kernel.fastpath.stats.lookups == lookups_before
        assert len(kernel.fastpath) == 0

    def test_negative_stat_fuses_and_create_unfuses(self, kernel, root):
        kernel.sys_mkdir(root, "/spool")
        for _ in range(2):
            with pytest.raises(SyscallError) as excinfo:
                kernel.sys_stat(root, "/spool/job")
            assert excinfo.value.errno_value == Errno.ENOENT
        assert kernel.fastpath.stats.hits >= 1  # the ENOENT was fused
        kernel.write_file(root, "/spool/job", b"q")  # prefix invalidation
        assert kernel.sys_stat(root, "/spool/job").size == 1

    def test_fused_denial_replays_errno_and_context(self, kernel, root, alice):
        # An LSM denial on a world-readable file: DAC passes, so the
        # walk leaves a dentry behind and the denial may fuse.
        class Denier(SecurityModule):
            name = "denier"

            def file_open(self, task, path, inode, flags):
                if path == "/vault":
                    return HookResult.DENY
                return HookResult.PASS

        kernel.write_file(root, "/vault", b"x")
        kernel.sys_chmod(root, "/vault", 0o644)
        kernel.register_module(Denier())
        with pytest.raises(SyscallError) as first:
            kernel.sys_open(alice, "/vault")
        hits_before = kernel.fastpath.stats.hits
        with pytest.raises(SyscallError) as second:
            kernel.sys_open(alice, "/vault")
        assert kernel.fastpath.stats.hits == hits_before + 1
        assert second.value.errno_value == first.value.errno_value
        assert second.value.context == first.value.context
        assert second.value.context.startswith("denier:file_open")

    def test_dac_denial_falls_back_to_the_layered_path(self, kernel, root,
                                                       alice):
        # A DAC denial leaves no dentry (the walk raised mid-check), so
        # there is no prefix-invalidation certificate: never fused.
        kernel.write_file(root, "/secret", b"x")
        kernel.sys_chmod(root, "/secret", 0o600)
        entries_before = len(kernel.fastpath)
        for _ in range(2):
            with pytest.raises(SyscallError) as excinfo:
                kernel.sys_open(alice, "/secret")
            assert excinfo.value.errno_value == Errno.EACCES
        assert len(kernel.fastpath) == entries_before

    def test_fused_hit_still_writes_the_audit_row(self):
        system = System(SystemMode.PROTEGO)
        kernel = system.kernel
        alice = system.session_for("alice")
        ring = kernel.security_server.audit
        assert kernel.sys_access(alice, "/etc/fstab", modes.R_OK)
        seq_before = ring._seq
        assert kernel.sys_access(alice, "/etc/fstab", modes.R_OK)  # fused
        assert ring._seq == seq_before + 1


# ======================================================================
# Fault sites: fail closed
# ======================================================================
class TestFastpathFaults:
    def test_insert_fault_is_a_counted_noop(self, kernel, root):
        path = _deep_file(kernel, root)
        expected = kernel.sys_stat(root, path)
        kernel.fastpath.flush()  # force the armed stats through put()
        with kernel.faults.inject(SITE_FASTPATH_INSERT):
            for _ in range(3):
                assert kernel.sys_stat(root, path) == expected
            assert kernel.fastpath.stats.alloc_failures > 0
            assert len(kernel.fastpath) == 0
        # Disarmed: the next stat fuses again.
        kernel.sys_stat(root, path)
        assert len(kernel.fastpath) == 1

    def test_entry_mask_fault_recomputes_but_never_caches(self, kernel, root):
        path = _deep_file(kernel, root)
        with kernel.faults.inject(SITE_ENTRY_MASK):
            root.entry_mask = None
            for _ in range(3):
                kernel.sys_stat(root, path)  # correct answer, mask uncached
            assert kernel.entry_gate.stats.uncached_recomputes >= 3
            assert root.entry_mask is None
        kernel.sys_stat(root, path)
        assert root.entry_mask == ALL_MASK


# ======================================================================
# The syscall-entry gate
# ======================================================================
class TestEntryGate:
    def test_restricted_task_rejected_before_arguments(self, kernel, root):
        gate = kernel.entry_gate
        gate.restrict(root, ["stat", "close", "exit"])
        kernel.write_file  # the helper itself is not gated
        with pytest.raises(SyscallError) as excinfo:
            kernel.sys_open(root, "/no/such/path/matters")
        # EPERM from the gate, not ENOENT from the walk: rejection
        # happened before any argument processing.
        assert excinfo.value.errno_value == Errno.EPERM
        assert gate.stats.rejections == 1
        gate.unrestrict(root)

    def test_warm_entries_hit_the_cached_mask(self, kernel, root):
        path = _deep_file(kernel, root)
        kernel.sys_stat(root, path)
        gate = kernel.entry_gate
        hits_before = gate.stats.mask_hits
        recomputes_before = gate.stats.mask_recomputes
        for _ in range(5):
            kernel.sys_stat(root, path)
        assert gate.stats.mask_hits == hits_before + 5
        assert gate.stats.mask_recomputes == recomputes_before

    def test_binary_binding_revalidates_cached_masks(self, kernel, root):
        path = _deep_file(kernel, root)
        kernel.sys_stat(root, path)  # caches root's mask
        gate = kernel.entry_gate
        gate.bind_binary(root.exe_path, ["stat", "close", "exit"])
        kernel.sys_stat(root, path)  # generation bump forces revalidate
        with pytest.raises(SyscallError) as excinfo:
            kernel.sys_open(root, path)
        assert excinfo.value.errno_value == Errno.EPERM
        gate.bind_binary(root.exe_path, None)  # unbind
        fd = kernel.sys_open(root, path)
        kernel.sys_close(root, fd)

    def test_setuid_forces_mask_revalidation(self, kernel):
        task = kernel.root_task("setuid-shell")
        kernel.sys_getpid(task)  # caches the mask for the old epoch
        recomputes_before = kernel.entry_gate.stats.mask_recomputes
        kernel.sys_setuid(task, 1000)
        kernel.sys_getpid(task)
        assert kernel.entry_gate.stats.mask_recomputes > recomputes_before

    def test_mask_helpers_round_trip(self):
        mask = mask_for(["open", "close", "route_del"])
        assert mask_names(mask) == ("open", "close", "route_del")
        assert mask_names(ALL_MASK) == SYSCALLS
        with pytest.raises(KeyError):
            mask_for(["open", "no_such_syscall"])


# ======================================================================
# The generation hub
# ======================================================================
class TestGenerationHub:
    def test_mount_and_policy_advance_the_composed_generation(self):
        hub = GenerationHub()
        assert hub.bump_mount() == 1
        assert hub.generation == 1
        assert hub.bump_policy() == 1
        assert hub.generation == 2

    def test_cred_epochs_are_unique_and_do_not_advance(self):
        hub = GenerationHub()
        epochs = {hub.next_cred_epoch() for _ in range(5)}
        assert len(epochs) == 5
        assert hub.generation == 0

    def test_path_fanout_reaches_every_subscriber(self):
        hub = GenerationHub()
        seen = []
        hub.subscribe_paths(seen.append)
        hub.subscribe_paths(lambda p: seen.append(p.upper()))
        hub.invalidate_path("/etc")
        assert seen == ["/etc", "/ETC"]

    def test_one_hub_spans_dcache_server_and_table(self, kernel):
        hub = kernel.generations
        assert kernel.vfs.generations is hub
        assert kernel.vfs.dcache.generations is hub
        assert kernel.security_server.generations is hub
        assert kernel.fastpath.generations is hub
        # The dcache's old mount_epoch is now a view of the hub.
        assert kernel.vfs.dcache.mount_epoch == hub.mount


# ======================================================================
# Verdict forms
# ======================================================================
class TestVerdictForms:
    def test_lookup_verdict_reports_errno_without_raising(self, kernel, root):
        inode, errno, _context, (cacheable, mount_gen) = \
            kernel.vfs.lookup_verdict("/nope", root.cred)
        assert inode is None and errno == Errno.ENOENT
        assert cacheable and mount_gen == kernel.generations.mount

    def test_check_verdict_carries_the_dependency_pair(self, kernel, root):
        path = _deep_file(kernel, root)
        kernel.fastpath.enabled = False
        from repro.kernel.security.access import AccessRequest
        decision, (fastpath_ok, generation) = \
            kernel.security_server.check_verdict(AccessRequest(
                hook="inode_permission", task=root, obj=path,
                mask=modes.R_OK, args=(path, None, modes.R_OK),
                dac=lambda: kernel.vfs.lookup(path, root.cred, modes.R_OK),
            ))
        assert decision.allowed and fastpath_ok
        assert generation == kernel.generations.generation


# ======================================================================
# /proc/protego/fastpath
# ======================================================================
class TestFastpathProcFile:
    def test_renders_table_hub_and_gate_counters(self):
        system = System(SystemMode.PROTEGO)
        kernel = system.kernel
        root = system.root_session()
        kernel.sys_stat(root, "/etc/fstab")
        kernel.sys_stat(root, "/etc/fstab")
        text = kernel.read_file(root, FASTPATH_PROC_PATH).decode()
        assert "entries=" in text and "hit_rate=" in text
        assert "generation=" in text and "mount=" in text
        assert "entry_checks=" in text and "bitmask_rejections=" in text
        assert "stale_evictions=" in text

    def test_root_only(self):
        system = System(SystemMode.PROTEGO)
        kernel = system.kernel
        alice = system.session_for("alice")
        with pytest.raises(SyscallError) as excinfo:
            kernel.read_file(alice, FASTPATH_PROC_PATH)
        assert excinfo.value.errno_value == Errno.EACCES
