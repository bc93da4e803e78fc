"""Single-server queueing analysis of a router and naive broadcast load.

A router serving its neighborhood is modeled as an M/M/1 station: Poisson
arrivals at rate A (one message per gap interval G), exponential service at
rate D = 1/S where the service time S is the message length L over the line
speed B. Closed forms used, with U = A/D:

  P_k = (1 - U) * U**k          steady-state probability of k messages
  T_w = U * S / (1 - U)          mean wait in queue
  T   = S / (1 - U)              mean residence (wait + service)
  N   = U / (1 - U)              mean messages in system
  Q   = U**2 / (1 - U)           mean messages in queue

The naive full-broadcast load is what every client pays without any of
this structure: each of the other clients' updates lands on its line every
interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class UnstableSystemError(ValueError):
    """Utilization at or above 1: the queue grows without bound."""


@dataclass(frozen=True)
class MMOneInputs:
    """Arrival/service description; derived fields are filled by mm1_metrics.

    Give either gap_interval_s (G) or arrival_rate_per_s (A), and either
    message_bits (L) with line_speed_bps (B) or service_time_s (S) directly.
    """

    gap_interval_s: float | None = None
    arrival_rate_per_s: float | None = None
    message_bits: float | None = None
    line_speed_bps: float | None = None
    service_time_s: float | None = None

    def resolve(self) -> tuple[float, float]:
        """Returns (arrival_rate, service_time), validating the input mix."""
        if (self.gap_interval_s is None) == (self.arrival_rate_per_s is None):
            raise ValueError("give exactly one of gap_interval_s or arrival_rate_per_s")
        if self.gap_interval_s is not None:
            arrival = 1.0 / _positive("gap_interval_s", self.gap_interval_s)
        else:
            arrival = _positive("arrival_rate_per_s", self.arrival_rate_per_s)

        if self.service_time_s is not None:
            if self.message_bits is not None or self.line_speed_bps is not None:
                raise ValueError("give either service_time_s or message_bits+line_speed_bps")
            service = _positive("service_time_s", self.service_time_s)
        else:
            if self.message_bits is None or self.line_speed_bps is None:
                raise ValueError("need message_bits and line_speed_bps (or service_time_s)")
            bits = _positive("message_bits", self.message_bits)
            service = bits / _positive("line_speed_bps", self.line_speed_bps)
        # A quotient of finite inputs can still overflow or underflow.
        return _positive("arrival rate", arrival), _positive("service time", service)


def _positive(name: str, value: float) -> float:
    """value if it is a finite number above 0; NaN, 0 and infinities raise."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


@dataclass(frozen=True)
class MMOneMetrics:
    arrival_rate_per_s: float  # A
    service_time_s: float  # S
    departure_rate_per_s: float  # D
    utilization: float  # U
    wait_time_s: float  # T_w
    residence_time_s: float  # T
    mean_in_system: float  # N
    mean_in_queue: float  # Q

    def state_probability(self, k: int) -> float:
        return state_probability(self.utilization, k)


def mm1_metrics(inputs: MMOneInputs) -> MMOneMetrics:
    """Evaluate the closed forms; utilization at or above 1 is an error."""
    arrival, service = inputs.resolve()
    departure = 1.0 / service
    utilization = arrival / departure
    if utilization >= 1.0:
        raise UnstableSystemError(
            f"utilization {utilization:.6g} >= 1: arrivals outpace service, queue diverges"
        )
    return MMOneMetrics(
        arrival_rate_per_s=arrival,
        service_time_s=service,
        departure_rate_per_s=departure,
        utilization=utilization,
        wait_time_s=utilization * service / (1.0 - utilization),
        residence_time_s=service / (1.0 - utilization),
        mean_in_system=utilization / (1.0 - utilization),
        mean_in_queue=utilization * utilization / (1.0 - utilization),
    )


def state_probability(utilization: float, k: int) -> float:
    """P_k = (1 - U) U**k for a stable station."""
    if not 0.0 <= utilization < 1.0:
        raise UnstableSystemError(f"utilization {utilization!r} outside [0, 1)")
    if k < 0:
        raise ValueError("k must be non-negative")
    return (1.0 - utilization) * utilization**k


def naive_broadcast_load(clients: int, payload_bytes: float, interval_s: float = 1.0) -> float:
    """Per-client inbound bit rate if everyone broadcast to everyone.

    Each client receives (clients - 1) payloads per interval.
    """
    if clients < 1:
        raise ValueError("clients must be >= 1")
    _positive("payload_bytes", payload_bytes)
    _positive("interval_s", interval_s)
    try:  # a client count too large for a float overflows on conversion
        load = (clients - 1) * payload_bytes * 8.0 / interval_s
    except OverflowError:
        load = math.inf
    if load == math.inf:
        raise ValueError("broadcast load overflows a float")
    return load
