"""Property tests: merge_lists is a last-writer-wins map CRDT that agrees with
a plain dict-walk merge and with a copy that absorbs, merge_all gives what a
round in which nobody is lost leaves every member, an update round
converges over its survivors when one member drops mid-round and is the same
round whether run_round or step() drives it, and a commit resolves exactly
once over the acks it received."""

import dataclasses
from functools import reduce

from hypothesis import given, settings
from hypothesis import strategies as st

from peermesh.sync import (
    UPDATE_CLASSES,
    AttributeEntry,
    AttributeList,
    UpdateRound,
    ack,
    expire,
    merge_all,
    merge_lists,
    propose_commit,
    run_round,
)
from peermesh.topology import NeighborhoodMap, NodeAddress, NodeRecord, form_clusters, parse_address

OWNERS = [parse_address(0x0A000000 + i) for i in range(4)]

entries = st.builds(
    AttributeEntry,
    key=st.sampled_from(["game", "room", "team"]),
    scope=st.sampled_from(["local", "global", "group:a"]),
    value=st.sampled_from([b"a", b"b", b"c"]),
    version=st.integers(1, 3),
    owner=st.sampled_from(OWNERS),
    update_class=st.sampled_from(UPDATE_CLASSES),
)


def _one_per_slot(es):
    # One entry per (key, owner) slot, as AttributeList keeps it.
    return AttributeList({(e.key, e.owner): e for e in es}.values())


attribute_lists = st.lists(entries, max_size=8).map(_one_per_slot)


@given(attribute_lists, attribute_lists)
def test_merge_is_commutative(a, b):
    assert merge_lists(a, b) == merge_lists(b, a)


@given(attribute_lists, attribute_lists, attribute_lists)
def test_merge_is_associative(a, b, c):
    assert merge_lists(merge_lists(a, b), c) == merge_lists(a, merge_lists(b, c))


@given(attribute_lists)
def test_merge_is_idempotent(a):
    assert merge_lists(a, a) == a


def reference_merge(a: AttributeList, b: AttributeList) -> AttributeList:
    """Copy every entry of a, then fold in every entry of b: the higher
    version wins, and a tie goes to the smaller (value, scope, class)."""

    def rank(e):
        return (-e.version, e.value, e.scope, e.update_class)

    merged = {(e.key, e.owner): e for e in a.entries()}
    for e in b.entries():
        slot = (e.key, e.owner)
        mine = merged.get(slot)
        merged[slot] = e if mine is None or rank(e) < rank(mine) else mine
    return AttributeList(merged.values())


@st.composite
def overlapping_lists(draw):
    """A pair of lists of any two sizes. The second holds some of the first's
    entry objects, some equal but distinct copies of them, and fresh entries."""
    a = draw(st.lists(entries, max_size=12).map(_one_per_slot))
    held = a.entries()
    same = draw(st.lists(st.sampled_from(held), max_size=len(held))) if held else []
    equal = draw(st.lists(st.sampled_from(held), max_size=len(held))) if held else []
    fresh = draw(st.lists(entries, max_size=12))
    pool = same + [dataclasses.replace(e) for e in equal] + fresh
    b = _one_per_slot(draw(st.permutations(pool)))
    return (b, a) if draw(st.booleans()) else (a, b)


@given(overlapping_lists())
def test_merge_agrees_with_the_reference_and_leaves_inputs_alone(pair):
    a, b = pair
    before = [(e, id(e)) for al in pair for e in al.entries()]
    assert merge_lists(a, b) == reference_merge(a, b)
    assert merge_lists(b, a) == reference_merge(a, b)
    for x, y in (pair, pair[::-1]):
        carried = x.copy()
        carried.absorb(y)
        assert carried == merge_lists(x, y)
    assert [(e, id(e)) for al in pair for e in al.entries()] == before


def _member_list(owner: NodeAddress, shared_version: int) -> AttributeList:
    # The member's own entry, plus its copy of one shared slot at some
    # version, so that the round has conflicts to resolve.
    return AttributeList(
        [
            AttributeEntry(key="self", scope="local", value=b"v", version=1, owner=owner),
            AttributeEntry(
                key="shared", scope="global", value=b"v", version=shared_version, owner=OWNERS[0]
            ),
        ]
    )


def _drawn_round_inputs(data):
    """A plan of 1-24 members in clusters of 1-6, and each member's list."""
    count = data.draw(st.integers(1, 24), label="members")
    size = data.draw(st.integers(1, 6), label="cluster_size")
    nmap = NeighborhoodMap.build(NodeRecord(parse_address(0x0A000100 + i)) for i in range(count))
    plan = form_clusters(nmap, size)
    versions = data.draw(st.lists(st.integers(1, 5), min_size=count, max_size=count))
    return plan, {a: _member_list(a, v) for a, v in zip(plan.members, versions)}


@settings(max_examples=300)
@given(st.data())
def test_merge_all_is_what_a_round_leaves_every_member(data):
    count = data.draw(st.integers(1, 16), label="members")
    size = data.draw(st.integers(1, 6), label="cluster_size")
    nmap = NeighborhoodMap.build(NodeRecord(parse_address(0x0A000100 + i)) for i in range(count))
    plan = form_clusters(nmap, size)
    lists = {}
    for a in plan.members:
        # Some members share a storage with an earlier one, as a round leaves them.
        earlier = data.draw(st.sampled_from([None, *lists]), label=f"shares {a}")
        own = data.draw(attribute_lists, label=f"list {a}")
        lists[a] = lists[earlier].copy() if earlier is not None else own
    before = {a: lst.entries() for a, lst in lists.items()}
    merged = merge_all(lists.values())
    assert {a: lst.entries() for a, lst in lists.items()} == before
    assert merged == reduce(merge_lists, lists.values())
    assert all(final == merged for final in run_round(plan, lists).final_lists().values())


@settings(max_examples=1000)
@given(st.data())
def test_round_survivors_converge_when_a_member_drops(data):
    plan, lists = _drawn_round_inputs(data)
    victim = data.draw(st.sampled_from(plan.members), label="victim")
    hops = 3 * len(plan.members) + 2 * len(plan.clusters)
    drop_at = data.draw(st.integers(0, hops), label="drop_at")  # past the end: no drop

    down: set[NodeAddress] = set()
    seen_dead: set[NodeAddress] = set()

    def is_active(a: NodeAddress) -> bool:
        if a in down:
            seen_dead.add(a)
            return False
        return True

    r = UpdateRound(plan, lists, is_active)
    steps = 0
    while not r.done:
        if steps == drop_at:
            down.add(victim)
        r.step()
        steps += 1

    assert r.stale == seen_dead
    assert r.message_count == sum(r.phase_messages.values())
    survivors = [a for a in plan.members if a not in down]
    want = reduce(merge_lists, (lists[a] for a in survivors), AttributeList())
    finals = r.final_lists()
    for a in survivors:
        assert merge_lists(finals[a], want) == finals[a]  # holds every survivor's entries
        assert finals[a] == finals[survivors[0]]


@settings(max_examples=200)
@given(st.data())
def test_run_round_and_step_give_the_same_round(data):
    plan, lists = _drawn_round_inputs(data)
    victim = data.draw(st.sampled_from(plan.members), label="victim")
    kth = data.draw(st.integers(1, 8), label="live_queries")  # then the victim is down

    def dropping_after_kth_query():
        asked = 0

        def is_active(a: NodeAddress) -> bool:
            nonlocal asked
            if a != victim:
                return True
            asked += 1
            return asked <= kth

        return is_active

    def outcome(r: UpdateRound):
        finals = {a: al.entries() for a, al in r.final_lists().items()}
        return finals, r.message_count, list(r.phase_messages.items()), r.retransmits, r.stale

    stepped = UpdateRound(plan, lists, dropping_after_kth_query())
    while not stepped.done:
        stepped.step()
    assert outcome(run_round(plan, lists, dropping_after_kth_query())) == outcome(stepped)


@settings(max_examples=200)
@given(st.data())
def test_commit_resolves_once_over_the_acks_received(data):
    size = data.draw(st.integers(1, 6), label="group")
    group = [parse_address(0x0A000200 + i) for i in range(size)]
    timeout = data.draw(st.integers(1, 10), label="timeout")
    # (member, tick) receipts: members may ack twice or never, the proposer too.
    receipts = data.draw(st.lists(st.tuples(st.sampled_from(group), st.integers(0, 12))))
    commit = propose_commit(group, proposer=group[0], key="k", value=b"v", now=0, timeout=timeout)
    received = {group[0]}
    first = commit.resolution
    for t in range(13):
        calls = [("ack", m) for m, at in receipts if at == t] + [("expire", None)]
        for call, member in data.draw(st.permutations(calls), label=f"order@{t}"):
            if call == "ack":
                if commit.resolution is None:
                    received.add(member)
                ack(commit, member, t)
            else:
                expire(commit, t)
            if first is None:
                first = commit.resolution
                if first is not None:
                    assert first.acks == received
            assert commit.resolution is first  # never changes once set
    res = commit.resolution
    assert res is not None and res.at <= timeout  # resolved, by the deadline at the latest
    assert res.acks | res.absentees == commit.group and not res.acks & res.absentees
    if res.at < commit.deadline:
        assert res.acks == commit.group and not res.absentees  # early only when all acked
