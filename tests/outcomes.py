"""Test helpers for outcomes that must not depend on how same-time events are ordered.

ShuffledEngine is an Engine with a seeded tie order: events scheduled outside
run (a script's lines and timed checks) keep their FIFO order and run first at
a tie, and events scheduled inside a handler run in a random order at a tie,
drawn from the order seed. run_shuffled replays a script on it.

assert_same_outcome compares two rendered reports of one script that may
differ only in the order of lines within a unit. report_text collects the
text that scenario.render_report writes for a report.
"""

import heapq
import io
import random
from unittest import mock

from peermesh import scenario
from peermesh.simcore import Engine, RunResult, SimEvent


class ShuffledEngine(Engine):
    """An Engine that breaks ties among handler-scheduled events at random.

    It keeps its own heap of (at, key, event). An event scheduled outside run
    gets a negative key in scheduling order, so it runs ahead of every
    handler-scheduled event at its time, even one that an earlier run queued.
    An event scheduled inside a handler gets a key whose high bits are random
    and whose low bits keep it unique, so no event is ever compared."""

    def __init__(self, seed: int, order_seed: int):
        super().__init__(seed)
        self._order = random.Random(order_seed)
        self._running = False
        self._heap: list[tuple[int, int, SimEvent]] = []
        self._count = 0

    def schedule(self, at, kind, payload=None):
        if at < self.now:
            raise ValueError(f"cannot schedule at {at} before current time {self.now}")
        count = self._count
        self._count += 1
        key = self._order.getrandbits(32) << 32 | count if self._running else count - 2**32
        ev = SimEvent(at, kind, payload)
        heapq.heappush(self._heap, (at, key, ev))
        return ev

    def run(self, handler=None, horizon=None):
        heap = self._heap
        count = 0
        self._running = True
        try:
            while heap:
                if horizon is not None and heap[0][0] > horizon:
                    return RunResult(count, truncated=True)
                self.now, _key, ev = heapq.heappop(heap)
                count += 1
                if handler is not None:
                    handler(self, ev)
            return RunResult(count)
        finally:
            self._running = False


def run_shuffled(script: scenario.ScenarioScript, order_seed: int, **kwargs) -> scenario.ScenarioReport:
    """scenario.run_scenario(script, **kwargs), on a ShuffledEngine with order_seed."""
    with mock.patch.object(scenario, "Engine", lambda seed: ShuffledEngine(seed, order_seed)):
        return scenario.run_scenario(script, **kwargs)


def report_text(report: scenario.ScenarioReport) -> str:
    """The text scenario.render_report writes for report."""
    out = io.StringIO()
    scenario.render_report(report, out.write)
    return out.getvalue()


def _split(text: str) -> tuple[list[str], dict[str, list[str]]]:
    """A rendered report's header lines (its name, its seed and each `-- ... --`
    line), and the lines under each header, by the header's first word."""
    heads: list[str] = []
    sections: dict[str, list[str]] = {}
    body = None
    for line in text.splitlines():
        if line.startswith("-- "):
            heads.append(line)
            body = sections.setdefault(line.split()[1].rstrip(":"), [])
        elif body is None:
            heads.append(line)
        else:
            body.append(line)
    return heads, sections


def assert_same_outcome(got: str, want: str) -> None:
    """got and want, two rendered reports, have the same header lines, the same
    verdict lines in order, and the same multiset of trace lines and of action
    lines: they differ at most in the order of lines within a unit."""
    got_heads, got_sections = _split(got)
    want_heads, want_sections = _split(want)
    assert got_heads == want_heads
    assert got_sections.get("checks") == want_sections.get("checks")
    for section in ("trace", "actions"):
        assert sorted(got_sections.get(section, [])) == sorted(want_sections.get(section, [])), section
