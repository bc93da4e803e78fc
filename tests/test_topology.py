import random
from ipaddress import IPv4Address

import pytest

from peermesh.scenario import Action
from peermesh.topology import (
    DOTTED,
    ClusterPlan,
    EmptyNeighborhoodError,
    NeighborhoodMap,
    NodeAddress,
    NodeRecord,
    NoSplitNeeded,
    NotAMemberError,
    address_distance,
    elect_router,
    form_clusters,
    parse_address,
    subdivide,
)


def addr(i: int) -> NodeAddress:
    return parse_address(i)


def build_map(ints, **overrides) -> NeighborhoodMap:
    return NeighborhoodMap.build(NodeRecord(addr(i), **overrides) for i in ints)


def test_parse_address_forms():
    a = parse_address("10.0.0.1")
    assert parse_address(int(a)) == a
    assert parse_address(a) is a
    rng = random.Random(0)
    for _ in range(200):
        v = rng.randrange(2**32)
        assert int(parse_address(v)) == v
        assert parse_address(str(parse_address(v))) == parse_address(v)


def test_parse_address_rejects_garbage():
    with pytest.raises(ValueError):
        parse_address("not-an-address")


def test_address_distance():
    a, b = parse_address("10.0.0.1"), parse_address("10.0.0.9")
    assert address_distance(a, b) == 8
    assert address_distance(b, a) == 8
    assert address_distance(a, a) == 0


def test_node_record_validation():
    with pytest.raises(ValueError):
        NodeRecord(addr(1), uptime_fraction=1.5)
    with pytest.raises(ValueError):
        NodeRecord(addr(1), link_capacity_bps=0)
    with pytest.raises(ValueError):
        NodeRecord(addr(1), metric=-1)


def test_map_build_sorts_and_rejects_duplicates():
    nmap = build_map([30, 10, 20])
    assert [int(r.address) for r in nmap.members] == [10, 20, 30]
    with pytest.raises(ValueError):
        build_map([10, 10])


def test_map_mutations_are_snapshots():
    nmap = build_map([10, 20])
    bigger = nmap.add(NodeRecord(addr(15)))
    assert len(nmap) == 2 and len(bigger) == 3
    assert [int(r.address) for r in bigger.members] == [10, 15, 20]
    with pytest.raises(ValueError):
        bigger.add(NodeRecord(addr(15)))

    smaller = bigger.remove(addr(10))
    assert addr(10) not in smaller and addr(10) in bigger
    with pytest.raises(NotAMemberError):
        smaller.remove(addr(10))

    off = smaller.set_active(addr(15), False)
    assert off.member(addr(15)).active is False
    assert smaller.member(addr(15)).active is True
    with pytest.raises(NotAMemberError):
        off.set_active(addr(99), True)


def test_remote_router_bookkeeping():
    nmap = build_map([10]).add_remote_router(addr(99))
    again = nmap.add_remote_router(addr(99))
    assert nmap.remote_routers == (addr(99),)
    assert again.remote_routers == (addr(99),)


def test_form_clusters_sizes_and_leaders():
    nmap = build_map(range(1, 24))  # 23 members
    plan = form_clusters(nmap, 5)
    assert [len(c) for c in plan.clusters] == [5, 5, 5, 5, 3]
    for cluster in plan.clusters:
        assert cluster[0] == min(cluster)
        assert list(cluster) == sorted(cluster)
    assert plan.leaders == tuple(c[0] for c in plan.clusters)
    assert plan.leaders[0] == addr(1)


def test_form_clusters_is_input_order_invariant():
    ints = list(range(100, 140))
    rng = random.Random(4)
    base = form_clusters(build_map(ints), 7)
    for _ in range(10):
        rng.shuffle(ints)
        assert form_clusters(build_map(ints), 7).clusters == base.clusters


def test_form_clusters_skips_inactive():
    records = [NodeRecord(addr(i), active=(i % 2 == 0)) for i in range(1, 11)]
    plan = form_clusters(NeighborhoodMap.build(records), 3)
    assert plan.members == tuple(addr(i) for i in (2, 4, 6, 8, 10))
    assert [len(c) for c in plan.clusters] == [3, 2]


def test_form_clusters_empty_and_bad_size():
    with pytest.raises(EmptyNeighborhoodError):
        form_clusters(NeighborhoodMap.build([NodeRecord(addr(1), active=False)]), 2)
    with pytest.raises(ValueError):
        form_clusters(build_map([1]), 0)


def test_cluster_index_is_rank_over_size_exhaustively():
    nmap = build_map(range(10, 74))
    for size in (1, 3, 5, 8, 64, 100):
        plan = form_clusters(nmap, size)
        assert plan.members == tuple(r.address for r in nmap.members)
        for ci, cluster in enumerate(plan.clusters):
            for a in cluster:
                assert plan.members.index(a) // size == ci


def test_sixth_lowest_of_ten_lands_in_second_cluster():
    nmap = build_map([5, 12, 19, 33, 40, 47, 58, 61, 70, 88])
    plan = form_clusters(nmap, 5)
    assert addr(47) in plan.clusters[1]
    assert plan.leaders == (addr(5), addr(47))


def test_subdivide_even_and_odd():
    lower, upper = subdivide(build_map(range(1, 11)), 6)
    assert len(lower) == 5 and len(upper) == 5
    lower, upper = subdivide(build_map(range(1, 12)), 6)
    # the extra member goes to the lower-address half
    assert len(lower) == 6 and len(upper) == 5
    assert max(int(r.address) for r in lower.members) < min(int(r.address) for r in upper.members)


def test_subdivide_checks_mass():
    nmap = build_map(range(1, 11))
    assert sum(map(len, subdivide(nmap, 4))) == len(nmap)
    with pytest.raises(NoSplitNeeded):
        subdivide(nmap, 10)
    with pytest.raises(ValueError):
        subdivide(nmap, 0)


def test_subdivide_repeatedly_reaches_critical_mass():
    maps = [build_map(range(1, 1025))]
    critical = 256
    while any(len(m) > critical for m in maps):
        nxt = []
        for m in maps:
            if len(m) > critical:
                nxt.extend(subdivide(m, critical))
            else:
                nxt.append(m)
        maps = nxt
    assert [len(m) for m in maps] == [256, 256, 256, 256]
    total = sorted(r.address for m in maps for r in m.members)
    assert total == sorted(r.address for r in build_map(range(1, 1025)).members)


MIN_CLIENTS = 3


@pytest.mark.parametrize(
    "uptime,capacity,active,eligible",
    [
        (0.95, 256_000.0, True, True),
        (0.90, 128_000.0, True, True),  # thresholds are inclusive
        (0.89, 256_000.0, True, False),
        (0.95, 127_999.0, True, False),
        (0.95, 256_000.0, False, False),
    ],
)
def test_router_eligibility_gates(uptime, capacity, active, eligible):
    # Three more members, active but too flaky to route, keep the active
    # population at min_clients either way: addr(1) wins exactly when eligible.
    records = [
        NodeRecord(addr(1), uptime_fraction=uptime, link_capacity_bps=capacity, active=active),
        *(NodeRecord(addr(i), uptime_fraction=0.5) for i in (2, 3, 4)),
    ]
    winner = elect_router(NeighborhoodMap.build(records).active_members(), MIN_CLIENTS)
    assert winner == (addr(1) if eligible else None)


def test_router_eligibility_needs_population():
    assert elect_router(build_map([1, 2]).active_members(), MIN_CLIENTS) is None  # 2 members < min_clients=3
    assert elect_router(build_map([1, 2, 3]).active_members(), MIN_CLIENTS) == addr(1)
    # Only active members count towards the population.
    nmap = build_map([1, 2, 3]).set_active(addr(3), False)
    assert elect_router(nmap.active_members(), MIN_CLIENTS) is None


def test_election_prefers_uptime_then_capacity_then_metric():
    records = [
        NodeRecord(addr(1), uptime_fraction=0.95, link_capacity_bps=300_000.0),
        NodeRecord(addr(2), uptime_fraction=0.99, link_capacity_bps=150_000.0),
        NodeRecord(addr(3), uptime_fraction=0.99, link_capacity_bps=200_000.0),
        NodeRecord(addr(4), uptime_fraction=0.99, link_capacity_bps=200_000.0, metric=5.0),
        # ineligible fillers keep the active population at min_clients
        *(NodeRecord(addr(i), uptime_fraction=0.5) for i in (5, 6, 7)),
    ]
    # Takeover order: each election's winner goes down before the next.
    nmap, order = NeighborhoodMap.build(records), []
    while (winner := elect_router(nmap.active_members(), MIN_CLIENTS)) is not None:
        order.append(winner)
        nmap = nmap.set_active(winner, False)
    assert order == [addr(3), addr(4), addr(2), addr(1)]


def test_election_tie_breaks_on_lowest_address():
    nmap = build_map([7, 3, 9], uptime_fraction=0.95, link_capacity_bps=200_000.0)
    assert elect_router(nmap.active_members(), MIN_CLIENTS) == addr(3)


def test_election_returns_none_when_nobody_qualifies():
    nmap = build_map([1, 2, 3], uptime_fraction=0.5)
    assert elect_router(nmap.active_members(), MIN_CLIENTS) is None
    small = build_map([1, 2])
    assert elect_router(small.active_members(), MIN_CLIENTS) is None


def test_cluster_plan_is_immutable():
    plan = form_clusters(build_map([1, 2, 3]), 2)
    assert isinstance(plan, ClusterPlan)
    with pytest.raises(AttributeError):
        plan.clusters = ()


# Values that share their low or high bytes, then random ones.
SAME_BYTES = [0, 2**32 - 1, 0x0A000001, 0x0B000001, 0x0A000101, 0x0A000100]


@pytest.mark.parametrize("value", [*SAME_BYTES, *random.Random(17).sample(range(2**32), 12)])
def test_address_text_is_the_dotted_quad(value):
    want = str(IPv4Address(value))
    a, b = parse_address(value), NodeAddress(value)
    assert a is not b  # two objects, one value, one text
    DOTTED.pop(value, None)  # so that b, never parsed, fills the table
    assert DOTTED[b] == want and DOTTED[a] == want
    assert str(a) == repr(a) == f"{a}" == str(b) == repr(b) == f"{b}" == want
    action = Action(at=3, kind="joined", body=f"addr={DOTTED[b]} neighborhood=0")
    assert action.get("addr") == want and action.get("neighborhood") == "0"
    assert action.render() == f"[     3] joined addr={want} neighborhood=0"
