"""Fleet engine basics: admission, scheduling, reporting, procfs."""

import pytest

import repro.fleet.engine as fleet_engine
from repro.core.system import SystemMode
from repro.fleet import FleetConfig, FleetEngine, build_shards, run_fleet
from repro.fleet.shard import FLEET_PROC_PATH


def test_smoke_run_completes_every_session():
    stats = run_fleet(FleetConfig(sessions=40, shards=2, seed=7))
    assert stats.completed + stats.failed == 40
    assert stats.failed == 0
    assert stats.ops > 40  # many ops per session
    assert stats.sessions_per_sec > 0
    per_shard = sum(r.completed + r.failed for r in stats.shard_reports)
    assert per_shard == 40
    assert all(r.sessions > 0 for r in stats.shard_reports)


def test_linux_mode_and_random_policy():
    stats = run_fleet(FleetConfig(sessions=30, shards=2, seed=3,
                                  mode=SystemMode.LINUX))
    assert stats.completed == 30
    assert stats.mode == "linux"


def test_global_schedule_is_rejected():
    with pytest.raises(ValueError, match="per-shard"):
        FleetConfig(sessions=1, schedule="global")


def test_tenant_pinned_to_one_shard():
    config = FleetConfig(sessions=60, shards=4, seed=1, tenants=16)
    engine = FleetEngine(config)
    sessions = fleet_engine.admit_sessions(
        config, {shard.index: shard for shard in engine.shards},
        fleet_engine.tenant_names_for(config))
    shard_of_tenant = {}
    for session in sessions:
        tenant = session.sid % 16
        shard_of_tenant.setdefault(tenant, session.shard.index)
        assert shard_of_tenant[tenant] == session.shard.index
    # With 16 tenants over 4 shards, every shard hosts someone.
    assert len(set(shard_of_tenant.values())) == 4


def test_fastpath_ablation_disables_every_shard():
    engine = FleetEngine(FleetConfig(sessions=20, shards=2, seed=5,
                                     fastpath=False))
    assert all(not shard.kernel.fastpath.enabled for shard in engine.shards)
    stats = engine.run()
    assert stats.completed == 20
    assert all(r.fastpath_hit_rate == 0.0 for r in stats.shard_reports)


def test_proc_fleet_endpoint_reports_run():
    engine = FleetEngine(FleetConfig(sessions=25, shards=2, seed=9))
    engine.run()
    for shard in engine.shards:
        root = shard.system.root_session()
        text = shard.kernel.read_file(
            root, f"/proc/{FLEET_PROC_PATH}").decode()
        assert "fleet: mode=protego" in text
        assert f"shard {shard.index}" in text
        assert "hit rates:" in text


def test_tick_clock_latencies_are_interleaving_distance():
    stats = run_fleet(FleetConfig(sessions=10, shards=1, seed=2))
    assert stats.clock == "tick"
    assert stats.latency_unit == "ticks"
    # A session's tick latency can't exceed the whole run's tick span.
    assert 0 < stats.session_p50 <= stats.elapsed
    assert stats.session_p99 >= stats.session_p50


def test_engine_accepts_prebuilt_shards():
    shards = build_shards(SystemMode.PROTEGO, 2,
                          tenants=[f"t{i:02d}" for i in range(8)])
    config = FleetConfig(sessions=12, shards=2, seed=4, tenants=8)
    stats = FleetEngine(config, shards=shards).run()
    assert stats.completed == 12
    assert stats.shards == 2


def test_prebuilt_shards_must_match_the_configured_count():
    # Placement is tenant % config.shards everywhere (the parallel
    # engine rebuilds from the config), so a mismatched pool would run
    # a different fleet than the config describes.
    shards = build_shards(SystemMode.PROTEGO, 3,
                          tenants=[f"t{i:02d}" for i in range(8)])
    with pytest.raises(ValueError, match="config.shards=2"):
        FleetEngine(FleetConfig(sessions=30, shards=2, tenants=8),
                    shards=shards)


def test_proc_fleet_live_count_is_fleet_wide(monkeypatch):
    """At every group end the /proc/protego/fleet header accounts for
    every admitted session: ``live + completed + failed == admitted``,
    with ``live`` the sessions of the groups still to run."""
    config = FleetConfig(sessions=40, shards=2, seed=3)
    engine = FleetEngine(config)
    run_group = fleet_engine.run_shard_group
    headers = []

    def recording(shard, sessions, *args):
        part = run_group(shard, sessions, *args)
        root = shard.system.root_session()
        text = shard.kernel.read_file(
            root, f"/proc/{FLEET_PROC_PATH}").decode()
        fields = dict(item.split("=") for item in
                      text.splitlines()[0].split()[1:])
        headers.append({key: int(fields[key])
                        for key in ("live", "completed", "failed")})
        return part

    monkeypatch.setattr(fleet_engine, "run_shard_group", recording)
    stats = engine.run()
    assert len(headers) == 2
    for header in headers:
        assert header["live"] + header["completed"] + header["failed"] \
            == config.sessions
    # After shard 0's group, shard 1's sessions are still live.
    assert headers[0]["live"] == stats.shard_reports[1].sessions > 0
    assert headers[1]["live"] == 0
