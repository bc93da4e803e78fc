import random

import pytest

from peermesh.discovery import (
    EXCERPT_CAP,
    DownloadRegistry,
    Introduction,
    IntroductionQueue,
    bootstrap,
    router_refresh,
)
from peermesh.simcore import RandomStream
from peermesh.topology import NeighborhoodMap, NodeAddress, NodeRecord, address_distance, parse_address


def addr(i: int) -> NodeAddress:
    return parse_address(i)


def test_register_returns_nearest_prior_registrants():
    reg = DownloadRegistry()
    rng = random.Random(3)
    priors = rng.sample(range(1, 2**20), 60)
    for t, a in enumerate(priors):
        reg.register(addr(a), at=t)
    me = addr(500_000)
    excerpt = reg.register(me, at=100)
    want = sorted(priors, key=lambda v: (abs(v - 500_000), v))[:EXCERPT_CAP]
    assert [int(a) for a in excerpt] == want


def test_register_excerpt_respects_cap_and_excludes_self():
    reg = DownloadRegistry()
    for i in range(1, 6):
        reg.register(addr(i * 10), at=i)
    excerpt = reg.register(addr(30), at=9, cap=3)  # 30 downloaded before, too
    assert excerpt == (addr(20), addr(40), addr(10))
    assert reg.register(addr(7), at=10, cap=0) == ()
    with pytest.raises(ValueError, match="cap"):
        reg.register(addr(8), at=11, cap=-1)  # would slice from the end
    assert reg.register(addr(31), at=12, cap=1) == (addr(30),)  # known once, however often
    assert reg.register(addr(9), at=13, cap=2) == (addr(10), addr(7))  # 8 was rejected


def test_register_empty_registry():
    assert DownloadRegistry().register(addr(1), at=0) == ()


def test_register_rejects_time_going_backwards():
    reg = DownloadRegistry()
    reg.register(addr(1), at=10)
    with pytest.raises(ValueError):
        reg.register(addr(2), at=9)


def test_probe_order_distance_then_address():
    reg = DownloadRegistry()
    for t, a in enumerate([110, 50, 90]):
        reg.register(addr(a), at=t)
    excerpt = reg.register(addr(100), at=10)
    # The excerpt is the probe order. 90 and 110 tie at distance 10: lower
    # address probes first.
    assert excerpt == (addr(90), addr(110), addr(50))
    res = bootstrap(excerpt, lambda a: False, RandomStream(1, "boot"), now=10)
    assert [a.target for a in res.attempts] == [addr(90), addr(110), addr(50)]


def test_bootstrap_connects_to_first_live_target():
    reg = DownloadRegistry()
    for t, a in enumerate([90, 110, 50]):
        reg.register(addr(a), at=t)
    excerpt = reg.register(addr(100), at=10)
    res = bootstrap(
        excerpt,
        is_active=lambda a: a == addr(110),
        stream=RandomStream(1, "boot"),
        now=10,
    )
    assert res.connected_to == addr(110)
    assert res.dead_targets == (addr(90),)
    assert [a.target for a in res.attempts] == [addr(90), addr(110)]
    ats = [a.at for a in res.attempts]
    assert ats[0] > 10 and ats == sorted(ats)
    assert res.finished_at == ats[-1]


def test_bootstrap_every_target_dead_falls_back_to_directory():
    reg = DownloadRegistry()
    for t, a in enumerate([1, 2, 3]):
        reg.register(addr(a), at=t)
    excerpt = reg.register(addr(10), at=5)
    res = bootstrap(excerpt, is_active=lambda a: False, stream=RandomStream(1, "b"), now=5)
    assert res.connected_to is None
    assert set(res.dead_targets) == {addr(1), addr(2), addr(3)}


def test_bootstrap_empty_excerpt_registers_without_probing():
    excerpt = DownloadRegistry().register(addr(1), at=0)
    res = bootstrap(excerpt, is_active=lambda a: True, stream=RandomStream(1, "b"), now=4)
    assert res.connected_to is None and res.attempts == ()
    assert res.finished_at == 4


def test_bootstrap_is_deterministic_per_stream():
    reg = DownloadRegistry()
    for t, a in enumerate(range(1, 9)):
        reg.register(addr(a), at=t)
    excerpt = reg.register(addr(20), at=20)
    runs = [
        bootstrap(excerpt, lambda a: False, RandomStream(9, "same"), now=0)
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_introductions_deliver_before_deadline():
    q = IntroductionQueue()
    q.add(addr(1), addr(9), deadline=100)
    q.add(addr(2), addr(9), deadline=100)
    q.add(addr(3), addr(8), deadline=100)
    got = q.deliver_for(addr(9), now=50)
    assert [i.sender for i in got] == [addr(1), addr(2)]
    assert [(i.sender, i.target) for i in q.pending()] == [(addr(3), addr(8))]
    assert (addr(1), addr(9)) not in q and (addr(3), addr(8)) in q
    assert q.deliver_for(addr(9), now=60) == []  # exactly once
    assert q.expire_due(now=100) == [Introduction(addr(3), addr(8), 100)]


def test_introductions_expire_at_deadline():
    q = IntroductionQueue()
    q.add(addr(1), addr(9), deadline=100)
    assert q.expire_due(now=99) == []
    expired = q.expire_due(now=100)
    assert [(i.sender, i.target) for i in expired] == [(addr(1), addr(9))]
    assert q.pending() == ()
    assert q.deliver_for(addr(9), now=100) == []  # too late
    assert q.expire_due(now=101) == []  # exactly once


def test_introduction_delivery_wins_a_race_with_expiry():
    q = IntroductionQueue()
    q.add(addr(1), addr(9), deadline=100)
    assert len(q.deliver_for(addr(9), now=99)) == 1
    assert q.expire_due(now=100) == []


def test_introduction_pending_twice_is_rejected():
    q = IntroductionQueue()
    q.add(addr(1), addr(9), deadline=100)
    with pytest.raises(ValueError, match="already pending"):
        q.add(addr(1), addr(9), deadline=200)
    assert [i.deadline for i in q.pending()] == [100]
    q.add(addr(2), addr(9), deadline=100)  # another sender, another pair
    q.add(addr(1), addr(8), deadline=100)  # another target, another pair
    assert len(q.pending()) == 3


def test_introduction_requeued_after_resolving_goes_last():
    q = IntroductionQueue()
    q.add(addr(1), addr(9), deadline=100)
    q.add(addr(2), addr(9), deadline=300)
    q.add(addr(3), addr(9), deadline=300)
    assert [i.sender for i in q.expire_due(now=100)] == [addr(1)]
    q.add(addr(1), addr(9), deadline=300)  # resolved, so the pair is free again
    got = q.deliver_for(addr(9), now=150)
    assert [i.sender for i in got] == [addr(2), addr(3), addr(1)]
    assert q.pending() == ()


def test_router_refresh_folds_in_span_clients_only():
    nmap = NeighborhoodMap.build([NodeRecord(addr(100)), NodeRecord(addr(200))])
    d = {addr(150), addr(50), addr(250)}  # one stray inside the span, two outside
    new_map, added = router_refresh(addr(100), d, nmap, NodeRecord)
    assert added == (addr(150),)
    assert addr(150) in new_map
    assert d == {addr(50), addr(250)}  # those outside are left alone


def test_router_refresh_skips_existing_members():
    nmap = NeighborhoodMap.build([NodeRecord(addr(100)), NodeRecord(addr(200))])
    new_map, added = router_refresh(addr(100), {addr(200)}, nmap, NodeRecord)
    assert added == ()
    assert len(new_map) == 2


def test_router_refresh_maps_the_record_of_each_stray():
    nmap = NeighborhoodMap.build([NodeRecord(addr(100)), NodeRecord(addr(200))])
    d = {addr(150), addr(120)}
    true = {
        addr(120): NodeRecord(addr(120), uptime_fraction=0.25, active=False),
        addr(150): NodeRecord(addr(150), uptime_fraction=0.75, metric=3.0),
    }
    new_map, added = router_refresh(addr(100), d, nmap, true.__getitem__)
    assert added == (addr(120), addr(150))
    assert new_map.member(addr(120)) is true[addr(120)]
    assert new_map.member(addr(150)) is true[addr(150)]
    stray = new_map.member(addr(120))
    assert (stray.active, stray.uptime_fraction) == (False, 0.25)


def test_router_refresh_requires_membership():
    nmap = NeighborhoodMap.build([NodeRecord(addr(100))])
    with pytest.raises(ValueError):
        router_refresh(addr(5), set(), nmap, NodeRecord)


def test_address_distance_drives_excerpt_order():
    reg = DownloadRegistry()
    rng = random.Random(8)
    pool = rng.sample(range(1, 10_000), 40)
    for t, a in enumerate(pool):
        reg.register(addr(a), at=t)
    origin = addr(4321)
    excerpt = reg.register(origin, at=99)
    dists = [address_distance(a, origin) for a in excerpt]
    assert dists == sorted(dists)
