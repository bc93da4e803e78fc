"""Property test: the registry excerpt is the cap nearest other known
addresses by (distance, address), whatever the order of registration."""

import heapq

from hypothesis import given
from hypothesis import strategies as st

from peermesh.discovery import DownloadRegistry
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
