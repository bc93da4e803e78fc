import random

import pytest

from peermesh.queueing import (
    MMOneInputs,
    UnstableSystemError,
    mm1_metrics,
    naive_broadcast_load,
    state_probability,
)


def test_worked_example_from_traffic_measurements():
    # one 8000-bit message every 2 s on a 16 kbit/s line
    m = mm1_metrics(MMOneInputs(gap_interval_s=2.0, message_bits=8000, line_speed_bps=16000))
    assert m.arrival_rate_per_s == 0.5
    assert m.service_time_s == 0.5
    assert m.departure_rate_per_s == 2.0
    assert m.utilization == 0.25
    assert m.wait_time_s == pytest.approx(1 / 6, rel=1e-12)
    assert m.residence_time_s == pytest.approx(2 / 3, rel=1e-12)
    assert m.mean_in_system == pytest.approx(1 / 3, rel=1e-12)
    assert m.mean_in_queue == pytest.approx(1 / 12, rel=1e-12)


def test_direct_rate_and_service_inputs():
    m = mm1_metrics(MMOneInputs(arrival_rate_per_s=0.5, service_time_s=0.5))
    assert m.utilization == 0.25
    assert m.departure_rate_per_s == 2.0


def test_identities_hold_across_random_stable_inputs():
    rng = random.Random(20)
    for _ in range(200):
        arrival = rng.uniform(0.01, 5.0)
        service = rng.uniform(0.001, 0.99 / arrival)  # keep U < 0.99
        m = mm1_metrics(MMOneInputs(arrival_rate_per_s=arrival, service_time_s=service))
        assert m.residence_time_s == pytest.approx(m.service_time_s + m.wait_time_s, rel=1e-9)
        assert m.mean_in_system == pytest.approx(arrival * m.residence_time_s, rel=1e-9)
        assert m.mean_in_queue == pytest.approx(arrival * m.wait_time_s, rel=1e-9)
        assert m.utilization == pytest.approx(arrival * service, rel=1e-12)


def test_state_probabilities_are_geometric():
    u = 0.25
    assert state_probability(u, 0) == 0.75
    assert state_probability(u, 2) == pytest.approx(0.75 * 0.0625, rel=1e-12)
    # partial sums telescope: sum_{k<=K} (1-U)U^k = 1 - U^(K+1)
    for K in (0, 1, 5, 20):
        total = sum(state_probability(u, k) for k in range(K + 1))
        assert total == pytest.approx(1 - u ** (K + 1), rel=1e-12)


def test_state_probability_via_metrics_object():
    m = mm1_metrics(MMOneInputs(arrival_rate_per_s=1.0, service_time_s=0.5))
    assert m.state_probability(0) == pytest.approx(0.5)
    assert m.state_probability(3) == pytest.approx(0.5 * 0.5**3)


def test_unstable_system_is_an_error():
    with pytest.raises(UnstableSystemError):
        mm1_metrics(MMOneInputs(gap_interval_s=0.25, service_time_s=0.5))  # U = 2
    with pytest.raises(UnstableSystemError):
        mm1_metrics(MMOneInputs(arrival_rate_per_s=2.0, service_time_s=0.5))  # U = 1
    with pytest.raises(UnstableSystemError):
        state_probability(1.0, 0)
    with pytest.raises(UnstableSystemError):
        state_probability(-0.1, 0)
    with pytest.raises(ValueError):
        state_probability(0.5, -1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {},  # no arrival inputs at all
        {"gap_interval_s": 2.0, "arrival_rate_per_s": 0.5, "service_time_s": 1.0},
        {"gap_interval_s": 2.0},  # no service inputs
        {"gap_interval_s": 2.0, "message_bits": 8000},  # line speed missing
        {"gap_interval_s": 2.0, "service_time_s": 0.5, "message_bits": 8000},
        {"gap_interval_s": 0.0, "service_time_s": 0.5},
        {"gap_interval_s": 2.0, "message_bits": -1, "line_speed_bps": 100},
        {"arrival_rate_per_s": -2.0, "service_time_s": 0.5},
        {"gap_interval_s": 2.0, "service_time_s": 0.0},
        {"gap_interval_s": float("nan"), "service_time_s": 0.5},
        {"gap_interval_s": 1.0, "message_bits": 8000, "line_speed_bps": float("inf")},
        {"gap_interval_s": 1.0, "message_bits": 1e-320, "line_speed_bps": 1e10},  # S underflows to 0
    ],
)
def test_input_mix_validation(kwargs):
    with pytest.raises(ValueError):
        mm1_metrics(MMOneInputs(**kwargs))


def test_naive_broadcast_load_values():
    # 255 peers x 64 bytes x 8 bits, every second
    assert naive_broadcast_load(256, 64, 1.0) == 130_560.0
    assert naive_broadcast_load(2, 64, 1.0) == 512.0
    assert naive_broadcast_load(1, 64, 1.0) == 0.0
    assert naive_broadcast_load(256, 64, 2.0) == 65_280.0


def test_naive_broadcast_load_validation():
    with pytest.raises(ValueError):
        naive_broadcast_load(0, 64)
    with pytest.raises(ValueError):
        naive_broadcast_load(2, 0)
    with pytest.raises(ValueError):
        naive_broadcast_load(2, 64, 0)
    with pytest.raises(ValueError):
        naive_broadcast_load(2, 64, float("nan"))
    with pytest.raises(ValueError):
        naive_broadcast_load(10**400, 64)  # too large for a float
    with pytest.raises(ValueError):
        naive_broadcast_load(2, 64, 1e-320)  # the load overflows
