import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from peermesh import simcore
from peermesh.simcore import (
    DEFAULT_SEED,
    DRAW_SPAN,
    HOP_DELAY_MAX,
    HOP_DELAY_MIN,
    HOPS_PER_DRAW,
    MS_PER_UNIT,
    Engine,
    RandomStream,
    derive_seed,
    digit_sums,
    quarter_sums,
    units_to_ms,
)
from peermesh.timing import MODES, SWEEP_TOTALS, _draw_layout, block_stream, default_factor_pairs


def values(quarters: np.ndarray) -> np.ndarray:
    """The packed draws kept quarters stand for: (q * DRAW_SPAN) >> 16."""
    return quarters.astype(np.uint32) * DRAW_SPAN >> 16


def digits(quarters: np.ndarray) -> np.ndarray:
    """Kept quarters as hop delays, one column per decimal digit of their draws, units first."""
    draws = values(quarters)
    return np.stack([draws // 10**k % 10 + HOP_DELAY_MIN for k in range(HOPS_PER_DRAW)], axis=-1)


@pytest.mark.parametrize(
    "units,ms",
    [(0, 0), (1, 50), (10, 500), (328, 16400), (488, 24400), (692, 34600), (975, 48750)],
)
def test_units_to_ms_exact(units, ms):
    assert units_to_ms(units) == ms


def test_units_to_ms_float_passthrough():
    out = units_to_ms(2.5)
    assert out == 125.0
    assert isinstance(out, float)
    assert isinstance(units_to_ms(3), int)


def test_units_to_ms_rejects_negative():
    with pytest.raises(ValueError):
        units_to_ms(-1)


def test_hop_delay_range_and_mean():
    quarters = RandomStream(123, "hops").hop_delays(200_000)
    assert quarters.dtype == np.uint16
    assert (quarters * np.uint16(DRAW_SPAN) >= 2**16 % DRAW_SPAN).all()  # every quarter handed out is a kept one
    draws = values(quarters)
    assert draws.min() >= 0
    assert draws.max() <= DRAW_SPAN - 1 == 10**HOPS_PER_DRAW - 1
    hops = digits(quarters)
    assert hops.min() >= HOP_DELAY_MIN
    assert hops.max() <= HOP_DELAY_MAX
    # each digit uniform on {1..10}: mean 5.5, std of the sample mean ~ 0.0064
    for mean in hops.mean(axis=0):
        assert abs(mean - 5.5) < 0.05


def test_hop_delay_frequencies():
    # every digit position of a packed draw is uniform on {0..9}
    n = 200_000
    hops = digits(RandomStream(5, "freq").hop_delays(n))
    for position in hops.T:
        counts = np.bincount(position, minlength=HOP_DELAY_MAX + 1)[1:]
        assert counts.sum() == n
        for c in counts:
            assert abs(c / n - 0.1) < 0.01


def test_digit_sums_match_enumeration():
    # digit_sums(d)[x] sums the hop delays of the low d digits of draw x, and
    # quarter_sums()[q] those of every digit of the draw quarter q stands for
    for d in range(1, HOPS_PER_DRAW + 1):
        table = digit_sums(d)
        assert table.dtype == np.int8
        assert table.shape == (DRAW_SPAN,)
        assert table.tolist() == [sum(int(c) + 1 for c in f"{x:04d}"[::-1][:d]) for x in range(DRAW_SPAN)]
    whole = [sum(int(c) + 1 for c in f"{x:04d}") for x in range(DRAW_SPAN)]
    table = quarter_sums()
    assert table.dtype == np.int8
    assert table.shape == (2**16,)
    assert table.tolist() == [whole[q * DRAW_SPAN >> 16] for q in range(2**16)]


def test_derive_seed_stable():
    assert derive_seed(7919, "timing/trial/0") == derive_seed(7919, "timing/trial/0")
    assert derive_seed(7919, "a") != derive_seed(7919, "b")
    assert derive_seed(1, "a") != derive_seed(2, "a")


@pytest.mark.parametrize("seed", [-1, 2**64, 7919 + 2**64])
def test_derive_seed_rejects_a_seed_outside_64_bits(seed):
    # masked to 64 bits, each would alias a seed in range
    with pytest.raises(ValueError, match="seed must be in 0.."):
        derive_seed(seed, "a")


def test_stream_replay_identical():
    a = RandomStream(42, "replay").hop_delays(1000)
    b = RandomStream(42, "replay").hop_delays(1000)
    assert np.array_equal(a, b)
    assert np.array_equal(digits(a), digits(b))


def test_streams_differ_by_id():
    # each digit position differs, not just the packed draws
    a = digits(RandomStream(42, "one").hop_delays(1000))
    b = digits(RandomStream(42, "two").hop_delays(1000))
    for k in range(HOPS_PER_DRAW):
        assert not np.array_equal(a[:, k], b[:, k])


def reference_delays(seed: int, stream_id: str, n: int) -> list[int]:
    """The first n hop delays of a stream, built from hashlib as RandomStream
    documents them: block j is the 64-byte BLAKE2b of the stream id keyed by
    the seed's 8 big-endian bytes, with j as its 16-byte little-endian salt;
    each byte below 250 is the delay 1 + byte % 10, and the rest are dropped."""
    out, j = [], 0
    while len(out) < n:
        salt = j.to_bytes(16, "little")
        block = hashlib.blake2b(stream_id.encode(), digest_size=64, key=seed.to_bytes(8, "big"), salt=salt).digest()
        out += [1 + b % 10 for b in block if b < 250]
        j += 1
    return out[:n]


@pytest.mark.parametrize(
    "seed,label,head",
    [
        (DEFAULT_SEED, "round/0/0", [3, 5, 3, 1, 1, 6, 7, 7, 8, 9]),
        (2**64 - 1, "node/10.0.0.1", [4, 3, 2, 6, 9, 3, 3, 3, 6, 5]),
    ],
)
def test_hop_delay_is_the_documented_blake2b_block_construction(seed, label, head):
    # 200 draws read at least four blocks; the literal head pins the construction itself.
    want = reference_delays(seed, label, 200)
    assert want[:10] == head
    stream = RandomStream(seed, label)
    drawn = [stream.hop_delay() for _ in range(200)]
    assert drawn == want
    assert {type(d) for d in drawn} == {int}


# Draws: None for one hop_delay(), k for next_delays(k).
draw_mixes = st.lists(st.none() | st.integers(0, 300), max_size=12)


@given(seed=st.integers(0, 2**64 - 1), label=st.text(max_size=12), mix=draw_mixes)
@example(seed=DEFAULT_SEED, label="commit/0", mix=[61, None, 300, 0, None, 62, 1])
def test_bulk_draws_are_the_single_draws(seed, label, mix):
    mixed, single = RandomStream(seed, label), RandomStream(seed, label)
    got = []
    for k in mix:
        if k is None:
            got.append(mixed.hop_delay())
        else:
            bulk = mixed.next_delays(k)
            assert type(bulk) is list and len(bulk) == k
            got += bulk
    assert got == [single.hop_delay() for _ in got]
    assert {type(d) for d in got} <= {int}
    assert mixed.hop_delay() == single.hop_delay()  # both streams stand at the same next draw


def test_each_delay_has_25_of_the_256_bytes():
    # A block's bytes in every value: 250 kept, 25 for each delay, and 250..255 dropped.
    delays = bytes(range(256)).translate(simcore._DELAY_OF_BYTE, simcore._DROPPED)
    assert list(delays) == [HOP_DELAY_MIN + b % 10 for b in range(250)]
    assert Counter(delays) == {d: 25 for d in range(HOP_DELAY_MIN, HOP_DELAY_MAX + 1)}


def test_hop_delays_are_numpys_int16_draws():
    # hop_delays sets PCG64 up at its first call, on the derived seed, apart
    # from hop_delay's blocks: timing's draws do not move. The draw each kept
    # quarter of a stream's first call stands for is numpy's int16 draw on
    # {0..9999}. Only a first call matches: numpy drops the unused half of its
    # last 32-bit word and caches half a word between calls.
    for block, size in enumerate(((64, 34), 50)):
        label = f"timing/8x8/table_consistent/block/{block}"
        gen = np.random.Generator(np.random.PCG64(derive_seed(9, label)))
        stream = RandomStream(9, label)
        stream.hop_delay()
        drawn = stream.hop_delays(size)
        assert drawn.dtype == np.uint16
        assert drawn.shape == np.shape(np.empty(size))
        assert np.array_equal(values(drawn), gen.integers(0, 10000, size=size, dtype=np.int16))


def reference_draws(seed: int, stream_id: str, n: int) -> list[int]:
    """The first n draws of a stream's hop_delays, built in plain Python as
    RandomStream documents them: each 64-bit word of PCG64(derive_seed(seed,
    stream_id)).random_raw is four 16-bit quarters, low quarter first; a
    quarter q is kept when q * 10000 mod 2**16 >= 2**16 % 10000, and stands
    for the draw q * 10000 >> 16."""
    bits, out = np.random.PCG64(derive_seed(seed, stream_id)), []
    while len(out) < n:
        word = int(bits.random_raw())
        quarters = [word >> 16 * k & 0xFFFF for k in range(4)]
        out += [q * 10000 >> 16 for q in quarters if q * 10000 % 2**16 >= 2**16 % 10000]
    return out[:n]


@pytest.mark.parametrize(
    "seed,label,head",
    [
        (DEFAULT_SEED, "timing/64x4/table_consistent/block/0", [785, 5824, 7905, 1759, 5166, 4053, 1723, 8243, 5784]),
        (2**64 - 1, "timing/4x512/equation_literal/block/2", [3330, 3696, 5009, 738, 7448, 8510, 8694, 7267, 362]),
    ],
)
def test_hop_delays_are_the_documented_pcg64_quarter_construction(seed, label, head):
    # 300 draws take about 82 words; the literal head pins the construction itself.
    want = reference_draws(seed, label, 300)
    assert want[: len(head)] == head
    assert values(RandomStream(seed, label).hop_delays(300)).tolist() == want


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("dims", [d for total in SWEEP_TOTALS for d in default_factor_pairs(total)], ids=str)
def test_a_timing_block_draws_what_numpys_integers_draws(dims, mode):
    # Every block shape of the built-in sweeps: a block's one call is numpy's
    # int16 draw of the same shape on the same seed.
    width = _draw_layout(dims, mode)[1]
    for block in range(3):
        stream = block_stream(DEFAULT_SEED, dims, mode, block)
        gen = np.random.Generator(np.random.PCG64(derive_seed(DEFAULT_SEED, stream.stream_id)))
        want = gen.integers(0, DRAW_SPAN, size=(64, width), dtype=np.int16)
        assert np.array_equal(values(stream.hop_delays((64, width))), want)


def test_a_short_over_draw_is_topped_up():
    # Found by a scan: the first ceil((20 + 20 // 8) / 4) = 6 words of this
    # stream hold only 18 kept quarters, so hop_delays(20) draws
    # ceil((20 - 18 + 20 // 8) / 4) = 1 word more, and still draws numpy's values.
    label = "top-up/28"
    first = np.random.PCG64(derive_seed(DEFAULT_SEED, label)).random_raw(6).view("<u2")
    assert (first * np.uint16(DRAW_SPAN) >= 2**16 % DRAW_SPAN).sum() == 18
    stream = RandomStream(DEFAULT_SEED, label)
    drawn = stream.hop_delays(20)
    gen = np.random.Generator(np.random.PCG64(derive_seed(DEFAULT_SEED, label)))
    assert np.array_equal(values(drawn), gen.integers(0, DRAW_SPAN, size=20, dtype=np.int16))
    after = np.random.PCG64(derive_seed(DEFAULT_SEED, label))
    after.random_raw(7)
    assert stream._bits.state == after.state


@pytest.mark.parametrize("size", [0, (0, 7)], ids=["0", "0x7"])
def test_an_empty_draw_draws_nothing(size):
    stream = RandomStream(DEFAULT_SEED, "empty")
    drawn = stream.hop_delays(size)
    assert drawn.shape == np.shape(np.empty(size))
    assert drawn.dtype == np.uint16
    assert np.array_equal(stream.hop_delays(100), RandomStream(DEFAULT_SEED, "empty").hop_delays(100))


@given(seed=st.integers(0, 2**64 - 1), sizes=st.lists(st.integers(0, 300), max_size=6))
@example(seed=DEFAULT_SEED, sizes=[20, 1, 0, 300])  # the first call takes the top-up path
def test_successive_hop_delays_continue_one_sequence(seed, sizes):
    stream = RandomStream(seed, "top-up/28")
    got = [stream.hop_delays(k) for k in sizes]
    assert [len(g) for g in got] == sizes
    whole = RandomStream(seed, "top-up/28").hop_delays(sum(sizes))
    assert np.array_equal(np.concatenate([np.empty(0, np.uint16), *got]), whole)


def test_latency_model_unit_scale():
    # one unit is the 500 ms regional worst case spread over the largest hop delay
    assert MS_PER_UNIT == 500 / HOP_DELAY_MAX == 500 / 10
    s = RandomStream(11, "lat")
    for _ in range(100):
        assert HOP_DELAY_MIN <= s.hop_delay() <= HOP_DELAY_MAX


def test_engine_orders_by_time_then_seq():
    eng = Engine(1)
    eng.schedule(5, "second")
    eng.schedule(3, "first")
    eng.schedule(5, "third")
    seen = []
    result = eng.run(lambda e, ev: seen.append((ev.kind, ev.at, e.now)))
    assert seen == [("first", 3, 3), ("second", 5, 5), ("third", 5, 5)]
    assert len(result) == result.events == 3
    assert not result.truncated
    assert eng.now == 5


def test_engine_rejects_scheduling_in_the_past():
    eng = Engine(1)
    eng.schedule(10, "x")
    eng.run()
    with pytest.raises(ValueError):
        eng.schedule(9, "late")


def test_horizon_truncates_instead_of_failing():
    eng = Engine(1)
    for at in (1, 5, 9):
        eng.schedule(at, "tick")
    seen = []
    first = eng.run(lambda e, ev: seen.append(ev.at), horizon=5)
    assert seen == [1, 5] and len(first) == 2
    assert first.truncated
    rest = eng.run(lambda e, ev: seen.append(ev.at))  # the event past the horizon stayed queued
    assert seen == [1, 5, 9] and len(rest) == 1
    assert not rest.truncated


def test_horizon_is_inclusive():
    eng = Engine(1)
    eng.schedule(5, "edge")
    trace = eng.run(horizon=5)
    assert len(trace) == 1
    assert not trace.truncated


def test_handler_chained_events_run_in_order():
    eng = Engine(1)
    hits = []

    def handler(e, ev):
        hits.append(e.now)
        if len(hits) < 5:
            e.schedule(e.now + 2, "again")

    eng.schedule(0, "again")
    eng.run(handler)
    assert hits == [0, 2, 4, 6, 8]


class Uncomparable(dict):
    """A payload that fails the test if the engine ever compares it."""

    def _compared(self, other):
        raise AssertionError("an event payload was compared")

    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _compared
    __hash__ = None


# An event: its time (few values, so many ties) and the delay after which its
# handler schedules one follow-up event, if any.
plans = st.lists(st.tuples(st.integers(0, 5), st.none() | st.integers(0, 3)), max_size=40)


@given(plans, st.none() | st.integers(-1, 9))
def test_engine_runs_every_event_once_by_time_then_in_scheduling_order(plan, horizon):
    eng = Engine(1)
    scheduled = []  # each event's payload index is its place in scheduling order

    def schedule(at, kind, follow):
        eng.schedule(at, kind, payload=Uncomparable(index=len(scheduled), follow=follow))
        scheduled.append(at)

    for at, follow in plan:
        schedule(at, "planned", follow)
    seen = []

    def handler(e, ev):
        assert e.now == ev.at
        seen.append((ev.at, ev.payload["index"]))
        follow = ev.payload["follow"]
        if follow is not None:
            schedule(e.now + follow, "follow-up", None)

    first = eng.run(handler, horizon=horizon)
    n_first = len(seen)
    assert len(first) == first.events == n_first
    if horizon is None:
        assert not first.truncated
    else:
        assert all(at <= horizon for at, _index in seen)
    rest = eng.run(handler)
    assert not rest.truncated
    assert first.truncated == (len(rest) > 0)
    if horizon is not None:
        assert all(at > horizon for at, _index in seen[n_first:])
    # Every event ran once, by time, including those scheduled while the run
    # went on: at a tie, first in first out, in the order they were scheduled.
    assert len(first) + len(rest) == len(seen) == len(scheduled)
    assert sorted(index for _at, index in seen) == list(range(len(scheduled)))
    assert seen == sorted(seen)
    assert len(eng.run()) == 0


def test_an_event_scheduled_at_now_runs_after_those_queued_there_and_before_the_next_time():
    eng = Engine(1)
    for kind in ("a", "b", "c"):
        eng.schedule(3, kind)
    eng.schedule(4, "later")
    seen = []

    def handler(e, ev):
        seen.append((e.now, ev.kind))
        if ev.kind in ("a", "now-1"):
            e.schedule(e.now, f"now-{len(seen)}")

    assert len(eng.run(handler)) == 6
    assert seen == [(3, "a"), (3, "b"), (3, "c"), (3, "now-1"), (3, "now-4"), (4, "later")]


def test_empty_run():
    trace = Engine(DEFAULT_SEED).run()
    assert len(trace) == 0
    assert not trace.truncated


def test_engine_stream_is_seed_scoped():
    a = Engine(7).stream("s").hop_delays(50)
    b = Engine(7).stream("s").hop_delays(50)
    c = Engine(8).stream("s").hop_delays(50)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
