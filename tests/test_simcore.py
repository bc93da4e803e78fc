import numpy as np
import pytest

from peermesh.simcore import (
    DEFAULT_SEED,
    HOP_DELAY_MAX,
    HOP_DELAY_MIN,
    MS_PER_UNIT,
    Engine,
    RandomStream,
    derive_seed,
    units_to_ms,
)


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
    draws = RandomStream(123, "hops").hop_delays(200_000)
    assert draws.dtype == np.int16
    assert draws.min() >= HOP_DELAY_MIN
    assert draws.max() <= HOP_DELAY_MAX
    # uniform on {1..10}: mean 5.5, std of the sample mean ~ 0.0064
    assert abs(draws.mean() - 5.5) < 0.05


def test_hop_delay_frequencies():
    n = 200_000
    draws = RandomStream(5, "freq").hop_delays(n)
    counts = np.bincount(draws, minlength=HOP_DELAY_MAX + 1)[1:]
    assert counts.sum() == n
    for c in counts:
        assert abs(c / n - 0.1) < 0.01


def test_derive_seed_stable():
    assert derive_seed(7919, "timing/trial/0") == derive_seed(7919, "timing/trial/0")
    assert derive_seed(7919, "a") != derive_seed(7919, "b")
    assert derive_seed(1, "a") != derive_seed(2, "a")


def test_stream_replay_identical():
    a = RandomStream(42, "replay").hop_delays(1000)
    b = RandomStream(42, "replay").hop_delays(1000)
    assert np.array_equal(a, b)


def test_streams_differ_by_id():
    a = RandomStream(42, "one").hop_delays(1000)
    b = RandomStream(42, "two").hop_delays(1000)
    assert not np.array_equal(a, b)


def test_integers_endpoint_inclusive():
    draws = RandomStream(3, "inc").integers(1, 3, size=3000)
    assert set(np.unique(draws)) == {1, 2, 3}


@pytest.mark.parametrize("seed", [0, 1, 701, 7919, 2**64 - 1])
def test_buffered_hop_delay_is_the_scalar_draw_sequence(seed):
    # Three buffer refills and a part: the values k scalar draws gave
    # before hop_delay was buffered, as plain ints.
    n = 3 * 64 + 5
    gen = np.random.Generator(np.random.PCG64(derive_seed(seed, "node/10.0.0.1")))
    scalar = [int(gen.integers(HOP_DELAY_MIN, HOP_DELAY_MAX, endpoint=True)) for _ in range(n)]
    stream = RandomStream(seed, "node/10.0.0.1")
    drawn = [stream.hop_delay() for _ in range(n)]
    assert drawn == scalar
    assert {type(d) for d in drawn} == {int}


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
    trace = eng.run(lambda e, ev: seen.append(ev.kind))
    assert seen == ["first", "second", "third"]
    assert [ev.at for ev in trace] == [3, 5, 5]
    assert not trace.truncated
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
    trace = eng.run(horizon=5)
    assert [ev.at for ev in trace] == [1, 5]
    assert trace.truncated
    rest = eng.run()  # the event past the horizon stayed queued
    assert [ev.at for ev in rest] == [9]
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
