"""The shared lease engine: grants, heartbeats, TOCTOU-closed sweeps."""

import threading
from dataclasses import dataclass

import pytest

from repro.fabric.lease import LeaseManager, Leasable
from repro.runner.fsio import atomic_write


@dataclass
class Entry:
    state: str = "LEASED"
    worker: str | None = None
    lease_until: float | None = None
    attempts: int = 0
    recoveries: int = 0


def make_manager(clock, **kwargs):
    kwargs.setdefault("lease_s", 10.0)
    return LeaseManager(clock=lambda: clock[0], **kwargs)


def test_entry_duck_typing():
    assert isinstance(Entry(), Leasable)


def test_grant_stamps_holder_expiry_and_attempt():
    clock = [100.0]
    leases = make_manager(clock)
    entry = Entry()
    until = leases.grant(entry, "w0")
    assert (entry.worker, entry.attempts) == ("w0", 1)
    assert until == entry.lease_until == 110.0
    clock[0] = 105.0
    assert leases.grant(entry, "w1") == 115.0
    assert entry.attempts == 2


def test_refresh_extends_only_live_leases():
    clock = [0.0]
    leases = make_manager(clock)
    entry = Entry()
    leases.grant(entry, "w0")
    clock[0] = 8.0
    assert leases.refresh(entry) is True
    assert entry.lease_until == 18.0
    leases.release(entry)
    assert entry.worker is None and entry.lease_until is None
    # A late heartbeat must not resurrect a released lease.
    assert leases.refresh(entry) is False
    entry.state = "DONE"
    entry.worker = "w0"
    assert leases.refresh(entry) is False


def test_expired_respects_state_skip_and_clock():
    clock = [0.0]
    leases = make_manager(clock)
    entry = Entry()
    leases.grant(entry, "w0")
    assert not leases.expired(entry, now=5.0)
    assert leases.expired(entry, now=11.0)
    entry.state = "DONE"
    assert not leases.expired(entry, now=11.0)


def test_sweep_reclaims_expired_and_returns_them():
    clock = [0.0]
    leases = make_manager(clock)
    stale, live = Entry(), Entry()
    leases.grant(stale, "dead")
    leases.grant(live, "alive")
    clock[0] = 20.0
    leases.refresh(live)
    reclaimed = []
    touched = leases.sweep_expired(lambda: [stale, live],
                                   lock=threading.Lock(),
                                   reclaim=reclaimed.append)
    assert touched == reclaimed == [stale]


def test_sweep_recheck_rescues_mid_sweep_heartbeat():
    """The TOCTOU window: a heartbeat landing between the snapshot and
    an entry's reclaim turn must rescue that entry."""
    clock = [0.0]
    leases = make_manager(clock)
    first, second = Entry(), Entry()
    leases.grant(first, "w-first")
    leases.grant(second, "w-second")
    clock[0] = 20.0  # both lapsed; both land in the snapshot

    reclaimed = []

    def reclaim(entry):
        reclaimed.append(entry)
        # While `first` is being reclaimed (a slow journal write in
        # real life), `second`'s holder heartbeats.
        leases.refresh(second)

    touched = leases.sweep_expired(lambda: [first, second],
                                   lock=threading.RLock(), reclaim=reclaim)
    assert touched == reclaimed == [first]
    assert second.lease_until == 30.0  # still leased, lease refreshed


def test_should_quarantine_counts_recoveries():
    leases = make_manager([0.0], max_recoveries=2)
    entry = Entry(recoveries=1)
    assert not leases.should_quarantine(entry)
    entry.recoveries = 2
    assert leases.should_quarantine(entry)


def test_validation():
    with pytest.raises(ValueError, match="lease_s"):
        LeaseManager(lease_s=0.0)
    with pytest.raises(ValueError, match="max_recoveries"):
        LeaseManager(max_recoveries=-1)


def test_atomic_write_replaces_and_leaves_no_temp(tmp_path):
    target = tmp_path / "deep" / "result.json"
    assert atomic_write(target, "first") == target
    atomic_write(target, b"second")
    assert target.read_bytes() == b"second"
    assert list(target.parent.glob("*.tmp")) == []
