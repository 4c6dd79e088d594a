import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_rng
from rosproxy.ports import (
    PURPOSE_SLAVE_API,
    PURPOSE_TCPROS,
    HISTORY_LEN,
    DoubleRelease,
    Exhausted,
    PortAllocator,
    PortLease,
    PortRange,
)

TARGET = ("10.0.2.3", 43231)


def make_allocator(low=30000, high=30002):
    return PortAllocator(PortRange(low, high))


def test_fresh_allocator_leases_lowest():
    alloc = make_allocator()
    assert alloc.lease(PURPOSE_SLAVE_API, TARGET, "/a").port == 30000


def test_exhaustion_by_pigeonhole():
    alloc = make_allocator()
    for _ in range(3):
        alloc.lease(PURPOSE_TCPROS, TARGET, "/a")
    with pytest.raises(Exhausted) as exc:
        alloc.lease(PURPOSE_TCPROS, TARGET, "/a")
    assert "30000-30002" in str(exc.value)


def test_released_port_fills_gap():
    alloc = make_allocator()
    leases = [alloc.lease(PURPOSE_TCPROS, TARGET, "/a") for _ in range(3)]
    alloc.release(leases[1])
    assert alloc.lease(PURPOSE_TCPROS, TARGET, "/a").port == 30001


def test_lease_release_lease_reuses_port():
    alloc = make_allocator()
    lease = alloc.lease(PURPOSE_TCPROS, TARGET, "/a")
    alloc.release(lease)
    assert alloc.lease(PURPOSE_TCPROS, TARGET, "/a").port == lease.port


def test_release_of_never_leased_port():
    alloc = make_allocator()
    with pytest.raises(DoubleRelease):
        alloc.release(PortLease(30001, PURPOSE_TCPROS, TARGET, "/a"))
    with pytest.raises(DoubleRelease):
        alloc.release(30005)


def test_full_release_clears_exhaustion():
    alloc = make_allocator()
    leases = [alloc.lease(PURPOSE_TCPROS, TARGET, "/a") for _ in range(3)]
    with pytest.raises(Exhausted):
        alloc.lease(PURPOSE_TCPROS, TARGET, "/a")
    for lease in leases:
        alloc.release(lease)
    assert alloc.lease(PURPOSE_TCPROS, TARGET, "/a").port == 30000


def test_live_leases_snapshot_sorted():
    alloc = make_allocator()
    assert alloc.live_leases() == []
    a = alloc.lease(PURPOSE_SLAVE_API, TARGET, "/a")
    b = alloc.lease(PURPOSE_TCPROS, TARGET, "/b")
    assert [l.port for l in alloc.live_leases()] == [30000, 30001]
    alloc.release(a)
    alloc.release(b)
    assert alloc.live_leases() == []


def test_range_validation():
    for low, high in ((30010, 30000), (80, 90), (30000, 70000)):
        with pytest.raises(ValueError):
            PortRange(low, high)


def random_walk(seed, size=40, ops=300):
    """Drive an allocator with a seeded lease/release walk; return history."""
    rng = make_rng(seed)
    alloc = PortAllocator(PortRange(40000, 40000 + size - 1))
    live = []
    for _ in range(ops):
        if live and (rng.random() < 0.45 or len(live) == size):
            alloc.release(live.pop(rng.randrange(len(live))))
        else:
            try:
                live.append(alloc.lease(PURPOSE_TCPROS, TARGET, "/n%d" % rng.randrange(8)))
            except Exhausted:
                pass
        ports = [l.port for l in alloc.live_leases()]
        assert len(ports) == len(set(ports)), "duplicate live port"
        assert all(p in alloc.port_range for p in ports)
        assert sorted(l.port for l in live) == ports
    return alloc.history


def test_randomized_walk_invariants():
    for seed in range(8):
        random_walk(seed)


def test_replay_determinism():
    assert random_walk(1234) == random_walk(1234)


def test_history_keeps_only_the_newest_leases():
    alloc = make_allocator(30000, 30000)
    for n in range(HISTORY_LEN + 5):
        alloc.release(alloc.lease(PURPOSE_TCPROS, TARGET, "/n%d" % n))
    assert len(alloc.history) == HISTORY_LEN
    assert alloc.history[0] == (30000, PURPOSE_TCPROS, "/n5")
    assert alloc.history[-1] == (30000, PURPOSE_TCPROS, "/n%d" % (HISTORY_LEN + 4))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2), max_size=60))
def test_property_no_port_shared(script):
    alloc = make_allocator(40100, 40105)
    live = []
    for op in script:
        if op < 2:
            try:
                live.append(alloc.lease(PURPOSE_TCPROS, TARGET, "/x"))
            except Exhausted:
                assert len(live) == 6
        elif live:
            alloc.release(live.pop(0))
        snapshot = alloc.live_leases()
        assert len({l.port for l in snapshot}) == len(snapshot)
