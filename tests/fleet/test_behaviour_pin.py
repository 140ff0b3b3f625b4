"""Behaviour pins: a fleet run's observable outcome, held across commits.

Each pin is the CRC32 of ``repr(FleetStats.comparable())`` for one
seeded, logical-clock fleet (per-shard schedule, 200 sessions on 2
shards, seed 1, daemon bookkeeping every 128 scheduler steps). That
digest covers every session outcome, op count, cache counter the
report keeps, and the audit and schedule CRCs, so a refactor that
claims to preserve behaviour must leave both pins unchanged.

A change that alters behaviour on purpose updates the pins here and
says so, with the reason, in CHANGES.md.
"""

import zlib

import pytest

from repro.fleet import PER_SHARD, FleetConfig, FleetEngine, TickClock

#: (mix, expected CRC32) — the canonical day mix and an admin-heavy
#: mix that drives mounts, policy syncs and credential churn.
PINS = [
    (None, 3882340591),
    ({"admin": 3, "interactive": 1}, 2626078989),
]


@pytest.mark.parametrize("mix, expected", PINS,
                         ids=["default-mix", "admin-mix"])
def test_fleet_outcome_matches_the_pin(mix, expected):
    config = FleetConfig(sessions=200, shards=2, seed=1,
                         schedule=PER_SHARD, record_schedule=True,
                         mix=mix, bookkeeping_interval=128)
    stats = FleetEngine(config, clock=TickClock()).run()
    assert zlib.crc32(repr(stats.comparable()).encode()) == expected
