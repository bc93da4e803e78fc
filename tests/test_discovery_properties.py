"""Property tests: the registry excerpt is the cap nearest other known
addresses by (distance, address), whatever the order of registration, and the
indexed introduction queue returns what a scan of every pending item would."""

import heapq

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from peermesh.discovery import DownloadRegistry, Introduction, IntroductionQueue
from peermesh.topology import address_distance, parse_address

TOP = 2**32 - 1
# Evenly spaced values, so that one address often sits exactly between two
# known ones, plus both ends of the address space.
TIED = [0, 1, 2, 3, 4, 6, 8, 2**31 - 2, 2**31, 2**31 + 2, TOP - 4, TOP - 2, TOP - 1, TOP]
addresses = st.one_of(st.sampled_from(TIED), st.integers(0, 64), st.integers(0, TOP))


def reference(known: set, address, cap: int) -> tuple:
    others = known - {address}
    return tuple(heapq.nsmallest(cap, others, key=lambda a: (address_distance(a, address), a)))


@given(st.lists(addresses, max_size=40), st.data())
def test_register_equals_brute_force_nearest(values, data):
    reg = DownloadRegistry()
    known: set = set()
    for at, value in enumerate(values):
        address = parse_address(value)
        cap = data.draw(st.integers(0, len(known) + 2), label="cap")
        assert reg.register(address, at, cap=cap) == reference(known, address, cap)
        known.add(address)


def test_register_ties_and_re_registration():
    reg = DownloadRegistry()
    for at, value in enumerate([0, 4, TOP, 8, 2]):
        reg.register(parse_address(value), at)
    # 2 is registered again: it is not its own neighbour, and 0 and 4 tie
    # at distance 2, the lower first.
    assert reg.register(parse_address(2), 5, cap=3) == tuple(map(parse_address, (0, 4, 8)))
    assert reg.register(parse_address(TOP - 1), 6, cap=2) == tuple(map(parse_address, (TOP, 8)))
    assert reg.register(parse_address(3), 7, cap=9) == tuple(
        map(parse_address, (2, 4, 0, 8, TOP - 1, TOP))
    )


class ScannedQueue:
    """The introduction queue as a list in queue order, scanned on every call."""

    def __init__(self):
        self.items: list[Introduction] = []

    def add(self, sender, target, deadline):
        if any((i.sender, i.target) == (sender, target) for i in self.items):
            raise ValueError("already pending")
        self.items.append(Introduction(sender, target, deadline))

    def _pop(self, due):
        out = [i for i in self.items if due(i)]
        self.items = [i for i in self.items if not due(i)]
        return out

    def deliver_for(self, target, now):
        return self._pop(lambda i: i.target == target and now < i.deadline)

    def expire_due(self, now):
        return self._pop(lambda i: now >= i.deadline)


PEERS = [parse_address(0x0A000000 + k) for k in range(4)]
queue_calls = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.sampled_from(PEERS), st.sampled_from(PEERS), st.integers(0, 12)),
        st.tuples(st.just("deliver_for"), st.sampled_from(PEERS)),
        st.tuples(st.just("expire_due")),
    ),
    max_size=40,
)


# A pair delivered and queued again: the first item's deadline entry must not expire the second.
REQUEUED = [("add", PEERS[0], PEERS[1], 2), ("deliver_for", PEERS[1]), ("add", PEERS[0], PEERS[1], 10), ("expire_due",)]


@settings(max_examples=300)
@given(queue_calls, st.lists(st.integers(0, 3), min_size=40, max_size=40))
@example(REQUEUED, [0, 0, 0, 5] + [0] * 36)
def test_the_introduction_queue_returns_what_a_scan_would(calls, steps):
    queue, scanned = IntroductionQueue(), ScannedQueue()
    now = 0
    for call, step in zip(calls, steps):
        now += step
        if call[0] == "add":
            _, sender, target, timeout = call
            if (sender, target) in queue:
                with pytest.raises(ValueError):
                    queue.add(sender, target, now + timeout)
                with pytest.raises(ValueError):
                    scanned.add(sender, target, now + timeout)
            else:
                queue.add(sender, target, now + timeout)
                scanned.add(sender, target, now + timeout)
        elif call[0] == "deliver_for":
            assert queue.deliver_for(call[1], now) == scanned.deliver_for(call[1], now)
        else:
            assert queue.expire_due(now) == scanned.expire_due(now)
        assert list(queue.pending()) == scanned.items
