"""Property tests: merge_lists is a last-writer-wins map CRDT, and an update
round converges over its survivors when one member drops mid-round."""

from functools import reduce
from ipaddress import IPv4Address

from hypothesis import given, settings
from hypothesis import strategies as st

from peermesh.sync import UPDATE_CLASSES, AttributeEntry, AttributeList, UpdateRound, merge_lists
from peermesh.topology import NeighborhoodMap, NodeRecord, form_clusters

OWNERS = [IPv4Address(0x0A000000 + i) for i in range(4)]

entries = st.builds(
    AttributeEntry,
    key=st.sampled_from(["game", "room", "team"]),
    scope=st.sampled_from(["local", "global", "group:a"]),
    value=st.sampled_from([b"a", b"b", b"c"]),
    version=st.integers(1, 3),
    owner=st.sampled_from(OWNERS),
    update_class=st.sampled_from(UPDATE_CLASSES),
)
# One entry per (key, owner) slot, as AttributeList keeps it.
attribute_lists = st.lists(entries, max_size=8).map(
    lambda es: AttributeList({(e.key, e.owner): e for e in es}.values())
)


@given(attribute_lists, attribute_lists)
def test_merge_is_commutative(a, b):
    assert merge_lists(a, b) == merge_lists(b, a)


@given(attribute_lists, attribute_lists, attribute_lists)
def test_merge_is_associative(a, b, c):
    assert merge_lists(merge_lists(a, b), c) == merge_lists(a, merge_lists(b, c))


@given(attribute_lists)
def test_merge_is_idempotent(a):
    assert merge_lists(a, a) == a


def _member_list(owner: IPv4Address, shared_version: int) -> AttributeList:
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


@settings(max_examples=1000)
@given(st.data())
def test_round_survivors_converge_when_a_member_drops(data):
    count = data.draw(st.integers(1, 24), label="members")
    size = data.draw(st.integers(1, 6), label="cluster_size")
    nmap = NeighborhoodMap.build(NodeRecord(IPv4Address(0x0A000100 + i)) for i in range(count))
    plan = form_clusters(nmap, size)
    versions = data.draw(st.lists(st.integers(1, 5), min_size=count, max_size=count))
    lists = {a: _member_list(a, v) for a, v in zip(plan.members, versions)}
    victim = data.draw(st.sampled_from(plan.members), label="victim")
    hops = 3 * count + 2 * len(plan.clusters)
    drop_at = data.draw(st.integers(0, hops), label="drop_at")  # past the end: no drop

    down: set[IPv4Address] = set()
    seen_dead: set[IPv4Address] = set()

    def is_active(a: IPv4Address) -> bool:
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
