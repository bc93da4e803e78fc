import random
from functools import reduce

import pytest

from peermesh import sync
from peermesh.sync import (
    AttributeEntry,
    AttributeList,
    ConfigurationError,
    NotInGroupError,
    Phase,
    UpdateRound,
    ack,
    expire,
    merge_lists,
    propose_commit,
    run_round,
    update_period,
    validate_scope,
)
from peermesh.topology import NeighborhoodMap, NodeAddress, NodeRecord, form_clusters, parse_address


def addr(i: int) -> NodeAddress:
    return parse_address(i)


def entry(key, owner, version=1, value=b"v", scope="local", update_class="moderate"):
    return AttributeEntry(
        key=key, scope=scope, value=value, version=version, owner=owner, update_class=update_class
    )


def make_plan(count: int, cluster_size: int):
    nmap = NeighborhoodMap.build(NodeRecord(addr(100 + i)) for i in range(count))
    return form_clusters(nmap, cluster_size)


def seed_lists(plan, rng=None):
    """One distinctive entry per member, plus a few random extras."""
    lists = {}
    for i, a in enumerate(plan.members):
        al = AttributeList()
        al.put(entry("self", a, value=f"m{i}".encode()))
        if rng is not None:
            for key in rng.sample(["game", "room", "team"], k=rng.randrange(3)):
                al.put(
                    entry(
                        key,
                        a,
                        version=rng.randrange(1, 4),
                        value=bytes([rng.randrange(97, 123)]),
                    )
                )
        lists[a] = al
    return lists


def oracle_merge(lists):
    out = AttributeList()
    for al in lists.values():
        out = merge_lists(out, al)
    return out


# -- scopes and entries -------------------------------------------------------


@pytest.mark.parametrize("scope", ["local", "global", "group:raid-7", "group:a.b_c"])
def test_valid_scopes(scope):
    assert validate_scope(scope) == scope


@pytest.mark.parametrize("scope", ["", "Global", "group:", "group:bad scope", "room"])
def test_invalid_scopes(scope):
    with pytest.raises(ValueError):
        validate_scope(scope)


def test_entry_validation():
    with pytest.raises(ValueError):
        entry("", addr(1))
    with pytest.raises(ValueError):
        entry("k", addr(1), version=0)
    with pytest.raises(ValueError):
        AttributeEntry(key="k", scope="local", value=b"", version=1, owner=addr(1), update_class="warp")


def test_put_requires_version_growth_and_fixed_scope():
    al = AttributeList()
    al.put(entry("k", addr(1), version=1))
    al.put(entry("k", addr(1), version=3))
    with pytest.raises(ValueError):
        al.put(entry("k", addr(1), version=3))
    with pytest.raises(ValueError):
        al.put(entry("k", addr(1), version=2))
    with pytest.raises(ValueError):
        al.put(entry("k", addr(1), version=4, scope="global"))
    al.put(entry("k", addr(2), version=1))  # same key, different owner is a new slot
    assert len(al) == 2


def test_entries_are_deterministically_ordered():
    al = AttributeList()
    al.put(entry("b", addr(2)))
    al.put(entry("a", addr(9)))
    al.put(entry("a", addr(3)))
    assert [(e.key, int(e.owner)) for e in al.entries()] == [("a", 3), ("a", 9), ("b", 2)]


# -- merge algebra ------------------------------------------------------------


def random_attribute_list(rng: random.Random) -> AttributeList:
    al = AttributeList()
    for key in ("game", "room", "team"):
        for owner in (addr(1), addr(2), addr(3)):
            if rng.random() < 0.5:
                al.put(
                    entry(
                        key,
                        owner,
                        version=rng.randrange(1, 3),
                        value=rng.choice([b"x", b"y"]),
                    )
                )
    return al


def test_merge_identity_and_idempotence():
    rng = random.Random(71)
    empty = AttributeList()
    for _ in range(20):
        al = random_attribute_list(rng)
        assert merge_lists(al, empty) == al
        assert merge_lists(empty, al) == al
        assert merge_lists(al, al) == al


def test_merge_commutes_and_associates():
    rng = random.Random(72)
    for _ in range(60):
        a, b, c = (random_attribute_list(rng) for _ in range(3))
        assert merge_lists(a, b) == merge_lists(b, a)
        assert merge_lists(merge_lists(a, b), c) == merge_lists(a, merge_lists(b, c))


def test_merge_higher_version_wins():
    a = AttributeList([entry("k", addr(1), version=2, value=b"new")])
    b = AttributeList([entry("k", addr(1), version=1, value=b"old")])
    merged = merge_lists(a, b)
    assert merged.get("k", addr(1)).value == b"new"


def test_merge_equal_version_tie_is_order_free():
    a = AttributeList([entry("k", addr(1), version=1, value=b"alpha")])
    b = AttributeList([entry("k", addr(1), version=1, value=b"beta")])
    left = merge_lists(a, b)
    right = merge_lists(b, a)
    assert left == right
    assert left.get("k", addr(1)).value == b"alpha"  # smaller value tuple wins


def test_merge_does_not_mutate_inputs():
    a = AttributeList([entry("k", addr(1), version=1)])
    b = AttributeList([entry("k", addr(2), version=1)])
    merge_lists(a, b)
    assert len(a) == 1 and len(b) == 1


# -- copy-on-write storage ------------------------------------------------------


def snapshot(*lists):
    return [al.entries() for al in lists]


def test_put_into_a_copy_or_its_source_leaves_the_other_alone():
    src = AttributeList([entry("k", addr(1)), entry("j", addr(2))])
    first, second = src.copy(), src.copy()
    before = src.entries()
    src.put(entry("j", addr(2), version=5))
    assert snapshot(first, second) == [before, before]
    first.put(entry("k", addr(1), version=2))
    first.put(entry("new", addr(3)))
    assert second.entries() == before
    assert src.get("k", addr(1)).version == 1 and src.get("new", addr(3)) is None
    # absorbing into a list that shares storage copies it first
    third = second.copy()
    second.absorb(AttributeList([entry("k", addr(1), version=4), entry("new", addr(3))]))
    assert second.get("k", addr(1)).version == 4 and len(second) == 3
    assert third.entries() == before


def test_put_into_a_merge_that_shares_storage_or_its_inputs_leaves_the_rest_alone():
    big = AttributeList([entry("k", addr(1)), entry("j", addr(2), version=3), entry("h", addr(4))])
    # the same object, an equal copy and a loser: nothing for the merge to add
    small = AttributeList(
        [big.get("k", addr(1)), entry("j", addr(2), version=3), entry("i", addr(1))]
    )
    big.put(entry("i", addr(1), version=2))
    for put_into in ("merged", "big"):
        merged = merge_lists(small, big)
        assert merged._entries is big._entries  # shared, not copied
        before = snapshot(big, small, merged)
        target = merged if put_into == "merged" else big
        target.put(entry("k", addr(1), version=target.get("k", addr(1)).version + 1))
        after = snapshot(big, small, merged)
        changed = [i for i, (x, y) in enumerate(zip(before, after)) if x != y]
        assert changed == ([2] if put_into == "merged" else [0])


def test_put_into_one_final_list_leaves_the_others_and_the_inputs_alone():
    plan = make_plan(12, 4)
    lists = seed_lists(plan, random.Random(11))
    inputs = snapshot(*lists.values())
    finals = run_round(plan, lists).final_lists()
    members = list(plan.members)
    outputs = snapshot(*(finals[a] for a in members))
    for i, a in enumerate(members):
        finals[a].put(entry("late", a, value=f"x{i}".encode()))
        others = [finals[b] for b in members if b != a]
        assert snapshot(*others) == [o for b, o in zip(members, outputs) if b != a]
        assert snapshot(*lists.values()) == inputs
        outputs[i] = finals[a].entries()


# -- update rounds -------------------------------------------------------------


@pytest.mark.parametrize("n,cols", [(2, 1), (4, 3), (5, 5), (3, 7), (2, 2)])
def test_round_message_count_uniform(n, cols):
    # failure-free law: per cluster 3*(n-1) hops, plus 2*(N-1) on the ring
    plan = make_plan(n * cols, n)
    r = run_round(plan, seed_lists(plan))
    assert r.message_count == cols * 3 * (n - 1) + 2 * (cols - 1)
    assert r.phase_messages[Phase.INTRA_FORWARD] == cols * (n - 1)
    assert r.phase_messages[Phase.INTRA_REVERSE] == cols * (n - 1)
    assert r.phase_messages[Phase.LEADER_RING] == 2 * (cols - 1)
    assert r.phase_messages[Phase.REDISTRIBUTE] == cols * (n - 1)


def test_round_message_count_ragged_tail():
    # 10 members in clusters of 4 -> sizes 4, 4, 2
    plan = make_plan(10, 4)
    r = run_round(plan, seed_lists(plan))
    # 3*(4-1) + 3*(4-1) + 3*(2-1) intra plus 2*(3-1) on the ring
    expected = sum(3 * (len(c) - 1) for c in plan.clusters) + 2 * (len(plan.clusters) - 1)
    assert r.message_count == expected == 25


def test_round_converges_everyone_to_the_full_merge():
    rng = random.Random(73)
    for _ in range(30):
        n = rng.randrange(1, 7)
        cols = rng.randrange(1, 7)
        count = max(2, n * cols)
        plan = make_plan(count, n)
        lists = seed_lists(plan, rng)
        want = oracle_merge(lists)
        finals = run_round(plan, lists).final_lists()
        assert all(finals[a] == want for a in plan.members)


def bench_shape_lists(plan, rng):
    """Each member owns two entries, and half also hold a stale or
    conflicting copy of another member's slot."""
    members = plan.members

    def drawn(key, owner):
        return entry(key, owner, version=rng.randrange(1, 5), value=rng.choice([b"a", b"b", b"c"]))

    owned = {a: [drawn(k, a) for k in rng.sample(["game", "room", "team", "zone"], 2)] for a in members}
    lists = {}
    for a in members:
        lists[a] = AttributeList(owned[a])
        if rng.random() < 0.5:
            other = rng.choice([b for b in members if b != a])
            lists[a].put(drawn(rng.choice(owned[other]).key, other))
    return lists


def test_round_at_the_largest_bench_shape_reaches_the_full_merge():
    # 1024 members in 32 clusters of 32, all live.
    plan = make_plan(1024, 32)
    members = plan.members
    lists = bench_shape_lists(plan, random.Random(701))
    want = reduce(merge_lists, lists.values())
    r = run_round(plan, lists)
    finals = r.final_lists()
    assert all(finals[a] == want for a in members)
    k, n = len(plan.clusters), 32
    assert k == 32 and all(len(c) == n for c in plan.clusters)
    assert r.message_count == k * 2 * (n - 1) + 2 * (k - 1) + k * (n - 1)


def test_round_single_member():
    plan = make_plan(1, 1)
    r = run_round(plan, seed_lists(plan))
    assert r.done and r.message_count == 0


def step_until_ring_leader_drops(plan, lists, cluster):
    """Step a round whose leader of `cluster` drops right after the
    ascending ring reaches it, holding its cluster's list."""
    down = set()
    r = UpdateRound(plan, lists, is_active=lambda a: a not in down)
    while not r.done:
        in_ring = r.phase is Phase.LEADER_RING
        r.step()
        if in_ring and not down and r.phase_messages[Phase.LEADER_RING] == cluster:
            down.add(plan.leaders[cluster])
    return r


@pytest.mark.parametrize("shape", ["6-of-3", "1024-of-32", "ring-leader-drops"])
def test_round_input_lists_are_not_mutated(shape):
    if shape == "6-of-3":
        plan = make_plan(6, 3)
        lists = seed_lists(plan)
    elif shape == "1024-of-32":
        plan = make_plan(1024, 32)
        lists = bench_shape_lists(plan, random.Random(1024))
    else:
        plan = make_plan(20, 4)
        lists = seed_lists(plan, random.Random(5))
    before = {a: al.entries() for a, al in lists.items()}
    if shape == "ring-leader-drops":
        assert step_until_ring_leader_drops(plan, lists, 2).retransmits == 1
    else:
        run_round(plan, lists)
    assert {a: al.entries() for a, al in lists.items()} == before


def test_round_requires_a_list_per_member():
    plan = make_plan(4, 2)
    lists = seed_lists(plan)
    del lists[plan.members[0]]
    with pytest.raises(ConfigurationError):
        run_round(plan, lists)


def test_round_skips_dead_members_and_marks_them_stale():
    plan = make_plan(12, 4)
    lists = seed_lists(plan)
    dead = {plan.members[2], plan.members[5]}  # a mid-chain member and a follower
    r = run_round(plan, lists, is_active=lambda a: a not in dead)
    assert r.stale == dead
    live = [a for a in plan.members if a not in dead]
    want = oracle_merge({a: lists[a] for a in live})
    finals = r.final_lists()
    assert all(finals[a] == want for a in live)


def test_round_drops_fully_dead_cluster():
    plan = make_plan(9, 3)
    dead = set(plan.clusters[1])
    r = run_round(plan, seed_lists(plan), is_active=lambda a: a not in dead)
    assert dead <= r.stale
    # two live clusters of 3: 3 hops * 3 phases each, ring of 2 leaders
    assert r.message_count == 2 * (3 * 2) + 2 * 1


def test_round_with_nobody_alive_is_a_configuration_error():
    plan = make_plan(4, 2)
    with pytest.raises(ConfigurationError):
        run_round(plan, seed_lists(plan), is_active=lambda a: False)


def test_mid_round_churn_marks_stale_and_still_completes():
    plan = make_plan(8, 4)
    lists = seed_lists(plan)
    dead = set()
    r = UpdateRound(plan, lists, is_active=lambda a: a not in dead)
    r.step()
    dead.add(plan.members[3])  # dies while the round is in flight
    while not r.done:
        r.step()
    assert plan.members[3] in r.stale


def test_round_survivors_converge_when_a_ring_leader_drops():
    # The cluster-2 leader drops right after the ascending ring reaches it,
    # holding its cluster's list; its chain's next member takes over as head.
    plan = make_plan(20, 4)
    lists = seed_lists(plan, random.Random(5))
    victim = plan.leaders[2]
    r = step_until_ring_leader_drops(plan, lists, 2)
    want = oracle_merge(lists)  # the victim's entries joined the ring before it dropped
    finals = r.final_lists()
    assert all(finals[a] == want for a in plan.members if a != victim)
    assert r.stale == {victim}
    assert r.retransmits == 1
    assert r.phase_messages[Phase.LEADER_RING] == 2 * (len(plan.clusters) - 1)


def test_redistribute_merges_once_per_chain(monkeypatch):
    # Every member of a chain holds the cluster list and its leader the
    # neighborhood list, so each Redistribute hop repeats one merge.
    plan = make_plan(256, 16)
    lists = seed_lists(plan, random.Random(16))
    r = UpdateRound(plan, lists)
    merges, depth = [], [0]

    def counted(fn):
        def wrapper(*args):
            if depth[0] == 0 and r.phase is Phase.REDISTRIBUTE:
                merges.append(args)
            depth[0] += 1  # a merge that absorbs is one merge
            try:
                return fn(*args)
            finally:
                depth[0] -= 1

        return wrapper

    monkeypatch.setattr(sync, "merge_lists", counted(sync.merge_lists))
    monkeypatch.setattr(AttributeList, "absorb", counted(AttributeList.absorb))
    while not r.done:
        r.step()
    assert r.phase_messages[Phase.REDISTRIBUTE] == 16 * 15
    assert 0 < len(merges) <= len(plan.clusters) == 16
    finals = r.final_lists()
    storage = finals[plan.members[0]]._entries
    assert all(finals[a]._entries is storage for a in plan.members)


def test_stepping_a_done_round_raises():
    plan = make_plan(2, 2)
    r = run_round(plan, seed_lists(plan))
    with pytest.raises(ConfigurationError):
        r.step()


# -- commits -------------------------------------------------------------------


GROUP = [addr(1), addr(2), addr(3)]


def test_commit_group_of_one_commits_immediately():
    c = propose_commit([addr(1)], addr(1), "k", b"v", now=0, timeout=10)
    assert c.resolution is not None and c.resolution.full
    assert c.resolution.at == 0


def test_commit_completes_on_last_ack():
    c = propose_commit(GROUP, addr(1), "k", b"v", now=0, timeout=10)
    assert c.resolution is None  # proposer's own ack is not enough
    ack(c, addr(2), now=3)
    assert c.resolution is None
    ack(c, addr(3), now=5)
    assert c.resolution is not None and c.resolution.full
    assert c.resolution.at == 5
    assert c.resolution.acks == frozenset(GROUP)


def test_commit_duplicate_acks_are_noops():
    c = propose_commit(GROUP, addr(1), "k", b"v", now=0, timeout=10)
    ack(c, addr(2), now=1)
    ack(c, addr(2), now=2)
    assert c.resolution is None
    assert c.acks == {addr(1), addr(2)}


def test_commit_rejects_strangers():
    c = propose_commit(GROUP, addr(1), "k", b"v", now=0, timeout=10)
    with pytest.raises(NotInGroupError):
        ack(c, addr(9), now=1)
    with pytest.raises(ConfigurationError):
        propose_commit(GROUP, addr(9), "k", b"v", now=0, timeout=10)


def test_commit_expire_flags_absentees():
    c = propose_commit(GROUP, addr(1), "k", b"v", now=0, timeout=10)
    ack(c, addr(2), now=4)
    expire(c, now=9)  # before the deadline: nothing happens
    assert c.resolution is None
    expire(c, now=10)
    assert c.resolution is not None
    assert c.resolution.acks == {addr(1), addr(2)}
    assert c.resolution.absentees == {addr(3)}
    assert not c.resolution.full


def test_commit_resolves_exactly_once():
    c = propose_commit(GROUP, addr(1), "k", b"v", now=0, timeout=10)
    expire(c, now=10)
    first = c.resolution
    ack(c, addr(2), now=11)  # late ack after resolution is dropped
    expire(c, now=12)
    assert c.resolution is first
    assert addr(2) in c.resolution.absentees


def test_commit_validates_inputs():
    with pytest.raises(ValueError):
        propose_commit(GROUP, addr(1), "k", b"v", now=0, timeout=0)
    with pytest.raises(ValueError):
        propose_commit(GROUP, addr(1), "k", b"v", now=0, timeout=5, scope="weird")


# -- update cadence --------------------------------------------------------------


@pytest.mark.parametrize(
    "cls,metrics,expected",
    [
        ("aggressive", [0.0], 10),
        ("moderate", [0.0], 50),
        ("light", [0.0], 250),
        ("aggressive", [100.0], 20),  # median equal to the reference doubles the base
        ("moderate", [100.0, 0.0, 100.0], 100),
        ("aggressive", [50.0], 15),
        ("light", [10.0, 20.0, 30.0], 300),
        # An even count takes the mean of the two middle items: 20, not 10 or 30.
        ("moderate", [0.0, 10.0, 30.0, 100.0], 60),
        ("light", [30.0, 10.0, 20.0], 300),  # unsorted
        ("moderate", [100.0, 0.0, 30.0, 10.0], 60),  # even and unsorted
        ("moderate", [15, 10], 56),  # integers: a median of 12.5
        ("aggressive", [40, 0, 20], 12),
    ],
)
def test_update_period_values(cls, metrics, expected):
    assert update_period(cls, metrics) == expected


def test_update_period_monotone_in_median():
    rng = random.Random(74)
    for _ in range(50):
        lo = sorted(rng.uniform(0, 50) for _ in range(5))
        hi = [m + 60 for m in lo]
        assert update_period("moderate", lo) <= update_period("moderate", hi)


def test_update_period_validation():
    with pytest.raises(ValueError):
        update_period("warp", [1.0])
    with pytest.raises(ValueError):
        update_period("moderate", [])
    with pytest.raises(ValueError):
        update_period("moderate", [-1.0])
    with pytest.raises(ValueError):
        update_period("moderate", [5.0, -1.0])  # the negative is not first
