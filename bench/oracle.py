"""Checks on the program's outputs, computed apart from the program.

Nothing here imports peermesh: the Monte Carlo means are checked against
exact distributions, round results against a plain-dict last-writer-wins
merge, and scenario reports against invariants of their own text.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product

HOP_MEAN = 5.5
HOP_VAR = 8.25  # (10**2 - 1) / 12
Z_LIMIT = 5.0  # |z| bound per mean; about 5e-5 false alarms per run of 78 checks
PRINT_2DP = 0.005  # half a unit in the last printed digit


class CheckFailed(AssertionError):
    pass


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# -- Monte Carlo tables ------------------------------------------------------


@lru_cache(maxsize=None)
def max_of_sums(rows: int, columns: int) -> tuple[float, float]:
    """(mean, variance) of the max of `columns` iid sums of `rows` hops.

    The pmf of one sum comes from repeated convolution; the max of iid
    copies has cdf F(s)**columns.
    """
    import numpy as np  # not at module level: the set-up probe times numpy's import with peermesh's

    hop = np.full(10, 0.1)  # uniform on {1..10}
    pmf = np.array([1.0])
    for _ in range(rows):
        pmf = np.convolve(pmf, hop)
    support = np.arange(len(pmf)) + rows  # the sum of rows hops is >= rows
    cdf_max = np.cumsum(pmf).clip(0.0, 1.0) ** columns
    pmf_max = np.diff(np.concatenate(([0.0], cdf_max)))
    mean = float((support * pmf_max).sum())
    var = float((support**2 * pmf_max).sum()) - mean * mean
    return mean, var


def brute_force_max_of_sums(rows: int, columns: int) -> tuple[Fraction, Fraction]:
    """Exact (mean, variance) by enumerating every draw; tiny shapes only."""
    total = Fraction(0)
    total_sq = Fraction(0)
    count = 0
    for draws in product(range(1, 11), repeat=rows * columns):
        m = max(sum(draws[c * rows : (c + 1) * rows]) for c in range(columns))
        total += m
        total_sq += m * m
        count += 1
    mean = total / count
    return mean, total_sq / count - mean * mean


def self_test() -> None:
    """The convolution oracle must agree with enumeration on a 2x2 shape."""
    exact_mean, exact_var = brute_force_max_of_sums(2, 2)
    mean, var = max_of_sums(2, 2)
    require(abs(mean - float(exact_mean)) < 1e-9, f"oracle mean {mean} != {float(exact_mean)} on 2x2")
    require(abs(var - float(exact_var)) < 1e-9, f"oracle variance {var} != {float(exact_var)} on 2x2")


def factor_pairs(total: int) -> list[tuple[int, int]]:
    """Power-of-two (rows, columns) with both sides >= 4, rows descending."""
    out = []
    rows = total // 4
    while rows >= 4:
        out.append((rows, total // rows))
        rows //= 2
    return out


def parse_tables(text: str) -> dict[int, list[tuple[int, int, float, float, float, float]]]:
    tables: dict[int, list] = {}
    current = None
    for line in text.splitlines():
        if line.startswith("# total="):
            current = tables.setdefault(int(line.split("=", 1)[1]), [])
        elif line and line[0].isdigit():
            r, c, t_c, t_cl, t_cp, t_u = line.split(",")
            current.append((int(r), int(c), float(t_c), float(t_cl), float(t_cp), float(t_u)))
    return tables


def check_tables(text: str, totals: tuple[int, ...], trials: int) -> dict:
    """Check every shape's means; returns the parsed tables."""
    tables = parse_tables(text)
    require(sorted(tables) == sorted(totals), f"tables for {sorted(tables)}, want {sorted(totals)}")
    for total, rows in tables.items():
        require([(r, c) for r, c, *_ in rows] == factor_pairs(total), f"shapes of total {total}")
        for r, c, t_c, t_cl, t_cp, t_u in rows:
            m_mean, m_var = max_of_sums(r, c)
            for name, got, mean, var in (
                ("t_c", t_c, 2 * m_mean, 4 * m_var),
                ("t_cl", t_cl, (c - 1) * HOP_MEAN, (c - 1) * HOP_VAR),
                ("t_c_prime", t_cp, m_mean, m_var),
            ):
                se = math.sqrt(var / trials)
                z = (abs(got - mean) - PRINT_2DP) / se
                require(z <= Z_LIMIT, f"{total} {r}x{c} {name}={got} vs exact {mean:.3f}: z={z:.2f}")
            require(abs(t_u - (t_c + t_cl + t_cp)) <= 3 * PRINT_2DP + 1e-9, f"{total} {r}x{c} T_u is not the sum")
    return tables


def check_figure9(text: str, tables: dict) -> None:
    lines = text.splitlines()
    require(lines[0] == "total_hops,T_u_ms", "figure9 header")
    points = [tuple(line.split(",")) for line in lines[1:] if line]
    require([int(t) for t, _ in points] == sorted(tables), "figure9 totals")
    for total, ms in points:
        best = min(row[5] for row in tables[int(total)])
        # 50 ms per unit; table T_u carries 2 decimals, figure9 one.
        require(abs(float(ms) - 50 * best) <= 50 * PRINT_2DP + 0.05 + 1e-9, f"figure9 {total}: {ms} vs 50*{best}")


# -- update rounds -----------------------------------------------------------


def lww_winners(entries, holders) -> dict[tuple[str, int], tuple]:
    """Last-writer-wins over the seed entries of `holders`.

    Higher version wins; equal versions go to the smaller
    (value, scope, class). Keyed by (key, owner).
    """
    best: dict[tuple[str, int], tuple] = {}
    for e in entries:
        holder, owner, key, scope, cls, value, version = e
        if holder not in holders:
            continue
        slot = (key, owner)
        cur = best.get(slot)
        if cur is None or (-version, value, scope, cls) < (-cur[6], cur[5], cur[3], cur[4]):
            best[slot] = e
    return best


def expected_messages(chain_sizes: list[int]) -> int:
    """Forward, reverse and redistribute per chain, the ring up and back."""
    k = len(chain_sizes)
    return sum(3 * (n - 1) for n in chain_sizes) + 2 * (k - 1)


# -- scenario reports --------------------------------------------------------


def _fields(line: str) -> tuple[int, str, dict[str, str]]:
    at_s, rest = line[1:].split("]", 1)
    parts = rest.split()
    return int(at_s), parts[0], dict(p.split("=", 1) for p in parts[1:])


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_report(text: str) -> str:
    """Invariants of a rendered `scenario run` report; returns its digest."""
    lines = text.splitlines()
    require(lines[-1].startswith("-- result: PASS"), f"scenario result: {lines[-1]}")
    head = lines[2]
    require(head.startswith("-- trace: "), "trace header missing")
    declared = int(head.split()[2])
    actions_at = next(i for i, line in enumerate(lines) if line.startswith("-- actions: "))
    require(actions_at - 3 == declared, f"trace header says {declared}, has {actions_at - 3} lines")
    n_actions = int(lines[actions_at].split()[2])
    checks_at = actions_at + 1 + n_actions
    require(lines[checks_at].startswith("-- checks: "), "action count does not match the action lines")

    last_at = -1
    proposed: dict[str, int] = {}
    committed: Counter = Counter()
    queued: Counter = Counter()
    resolved: Counter = Counter()
    for line in lines[actions_at + 1 : checks_at]:
        at, kind, f = _fields(line)
        require(at >= last_at, f"action time goes back: {line}")
        last_at = at
        if kind == "proposed":
            require(f["key"] not in proposed, f"key {f['key']} proposed twice")
            proposed[f["key"]] = int(f["group"])
        elif kind == "committed":
            absent = 0 if f["absent"] == "-" else len(f["absent"].split(","))
            require(f["key"] in proposed, f"commit of unproposed {f['key']}")
            require(int(f["acks"]) + absent == proposed[f["key"]], f"acks+absent != group: {line}")
            committed[f["key"]] += 1
        elif kind == "queued":
            queued[f["from"], f["to"]] += 1
        elif kind in ("delivered", "expired"):
            resolved[f["from"], f["to"]] += 1
    require(all(committed[k] == 1 for k in proposed), "a proposal did not commit exactly once")
    require(sum(committed.values()) == len(proposed), "commits without proposals")
    for pair, n in resolved.items():
        require(n <= queued[pair], f"introduction {pair} resolved {n}x, queued {queued[pair]}x")
    return digest(text)
