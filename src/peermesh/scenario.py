"""Scripted end-to-end simulations over the full protocol stack.

Scenario files drive a world of application instances through downloads,
churn, commits and subdivisions, then check what happened. Line grammar
(blank lines and ``#`` comments are ignored):

  config <key>=<value> ...
  at=<units> event=<kind> addr=<dotted-quad> [key=value ...]
  assert <kind> [at=<units>] key=value ...

The tables _CONFIG_PARAMS, _EVENT_PARAMS and _CHECK_KINDS below are the one
statement of a line's parameters: which kinds and keys exist, which
parameters each takes and needs, what each value must be, and which recorded
action a check matches. A download's domain= is not used; the trace only
echoes it. Checks with at= are evaluated at that virtual time, the rest after
the run; one timed past the horizon fails. A timed action check matches only
the lines stamped at or before its time, an untimed one every line. router
and no-router fail for an unknown address.

The parser casts every value, so a script's config is a WorldConfig and the
handlers and checks read each parameter as cast; a record keeps its
parameters as written only to echo them in the trace and the verdict. Each
script line keeps its name:line, which its run-time rejections start with.
Each engine event carries one record, a script line or check as parsed or a
world event's typed payload, and no target: a script line's trace body names
its own. World.handle finds a record's handler in one table; KIND_* below are
the engine kinds of world events.

A download registers the instance and probes its registry excerpt in the
excerpt's order, which is the probe order: nearest address first. Handshakes
complete within the originating event; the sampled hop delays show up in the
recorded action times, not in state sequencing. Runs always get a horizon
(config, or last scripted time + 1000), which can cut a round short; hitting
it marks the trace truncated, which is a defined outcome.

Router lifecycle: only an election installs a router; each election, and each
`up` of a router that was down, starts an incarnation. Its refresh ticks fall
each refresh_period from that start; one is queued only for a stray in the live
router's span and maps only if its incarnation is current. A router beacons
each beacon_period from its start and a monitor checks each period from its
election, but only a `down` ends a router, so neither runs as an event: the
`down` schedules one Failover timer for the tick that finds its beacon stale. A
return or split voids it; it runs as a no-op, cheaper than an engine cancel.

Each instance holds an attribute list from its download on, holding its own
membership entry; `assert introduced from=A to=B` checks that B holds A's.
Neighborhoods spread the entries by the paper's four-phase update round, run
only when membership has changed since the last round: a join, a return, a
mapped stray or a split stamps the neighborhood's last change, and queues a
round start unless one is queued or running. The start is due at the later of the
next unit and the last start plus one moderate update period of that round's
members. It takes a snapshot of the live members in address order, cut into
clusters of round(sqrt(n/3)) + 1, the closed-form optimum of a one-level round
(a stand-in for an exact search), and times the round by
timing.barrier_latency over the 2n-2 hop delays it draws in one call on the
stream round/<nid>/<k>, k counting that neighborhood's rounds. The round's end
hands every member of the snapshot one list, the merge of the snapshot's
lists, records one round action, and queues the next
round only if membership changed in or after the unit the round started; no
round recurs by itself. A join queues
an introduction only for each member down at its connect and each dead
probe target; a delivered one gives its target the sender's entry, a list
the world keeps from the download on and never writes. One IntroExpiry timer
per distinct deadline expires them. A neighborhood keeps its members' metrics
sorted, as they join, are mapped or split off (membership never shrinks
inside a neighborhood), and an introduction's timeout is ten moderate update
periods of their median, read once for each batch a join queues.

World.flips is the one record of liveness: the units at which each instance
went down or came up. An instance was live at unit t, after the lines at t,
if it had flipped an even number of times by t. A send draws every proposal
delay, then every ack delay, in member order, in one call on the stream
commit/<idx>, so
no proposal or ack runs as an event: a member acks if it was live when its
proposal lands, and its ack counts if it lands before the deadline. One
CommitDue timer at the last ack, if that is before the deadline, resolves a
commit that every member acked; one at the deadline resolves it over the acks
it got, and the absentees still in the proposer's neighborhood go offline.
A map is a membership snapshot only: World.offline is the one record of what
a neighborhood sees as offline, the instances that are down and those that a
commit of their own neighborhood missed since their last flip. Commit groups
and elections take the members not in it; no flip or absentee replaces a map.

Ties: at one time, script event lines run first, in file order, then timed
checks, in file order, then world events in the order they were scheduled.
That last order should decide only the order of lines in the trace and the
action log, not an outcome. A commit's receipts are computed, not run, so no
tie reorders them. A round judges liveness by the liveness history, not by
the offline view, which commit absentees change; its snapshot counts only
members mapped before its unit, and a change in the unit of its start is news
for the next round, so a refresh map in that unit counts alike either side.
A neighborhood that splits keeps its last map for the rounds of that unit, and
a round whose neighborhood split in an earlier unit is void: so no two rounds
that share a member end in one unit.

The trace is rendered as the run goes: each engine event becomes its text
line when it is dispatched, and no event is kept after its handler returns.
A run without a trace (`--quiet`) only counts its events.

Both the trace and the action log are built as text: each payload type
renders its trace body, and each handler its action's fields, with one
f-string, reading addresses from topology's table DOTTED. An action is held
as its report line, its time included, and an Action is built from that line
only when it is read; a check matches the line one whole key=value field at
a time. The log is kept in time order as it grows: a handshake's actions
carry its finish time, later than the event that records them, so they wait
in a small heap until the world's clock reaches them.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_right, insort
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterator, Mapping, NamedTuple

from . import discovery, sync, timing
from .simcore import DEFAULT_SEED, Engine, RunResult, SimEvent
from .topology import (
    DOTTED,
    NeighborhoodMap,
    NodeAddress,
    NodeRecord,
    NoSplitNeeded,
    elect_router,
    parse_address,
    subdivide,
)

_text = DOTTED.__getitem__  # an address's dotted quad
DEFAULT_HORIZON_MARGIN = 1000
_REPORT_BLOCK = 1 << 16  # characters render_report hands its write at once: 64 KiB of ASCII
# A router whose beacon is this many periods old has failed over.
BEACON_TIMEOUT_FACTOR = 2
# The attribute key of the entry each instance holds on its own membership.
MEMBER_KEY = "member"
# Engine event kinds of world events. A script line runs as its own kind,
# except that up and down run as node-up and node-down (schedule_line).
KIND_MESSAGE = "message-delivery"
KIND_TIMER = "timer"


def _address_list(text: str) -> tuple[NodeAddress, ...]:
    return () if text == "-" else tuple(parse_address(a) for a in text.split(","))


class _Param(NamedTuple):
    """How the parser casts and tests a parameter, what a value must be, and whether
    its line needs it: a script that parses never fails on a value in a handler."""

    cast: Callable[[str], object]
    test: Callable[[object], bool]
    wants: str
    needed: bool = False


_TEXT = _Param(str, lambda v: True, "text")
_COUNT = _Param(int, lambda v: v >= 0, "a non-negative integer")
_POSITIVE = _Param(int, lambda v: v > 0, "a positive integer")
_ADDRESS = _Param(parse_address, lambda v: True, "a dotted-quad address")
_CONFIG_PARAMS = {
    "critical_mass": _POSITIVE,
    "excerpt_cap": _COUNT,
    "min_clients": _COUNT,
    "beacon_period": _POSITIVE,
    "refresh_period": _POSITIVE,
    "intro_timeout": _COUNT,
    "commit_timeout": _POSITIVE,
    "horizon": _COUNT,
}
_AT = {"at": _COUNT}
_EVENT = {**_AT, "addr": _ADDRESS}  # an event line without both is rejected first
_EVENT_PARAMS = {
    "download": {
        **_EVENT,
        "domain": _TEXT,
        "uptime": _Param(float, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]"),
        "capacity": _Param(float, lambda v: 0 < v < math.inf, "a positive number"),
        "metric": _Param(float, lambda v: 0 <= v < math.inf, "a non-negative number"),
    },
    "up": _EVENT,
    "down": _EVENT,
    "send": {
        **_EVENT,
        "key": _TEXT._replace(needed=True),
        "value": _Param(str.encode, lambda v: True, "text"),
        "timeout": _POSITIVE,
        "scope": _Param(sync.validate_scope, lambda v: True, "local, global or group:<id>"),
    },
    "subdivide": {**_EVENT, "critical_mass": _POSITIVE},
}
# The download parameters an instance's NodeRecord takes, by the field each sets.
_RECORD_FIELDS = {"uptime": "uptime_fraction", "capacity": "link_capacity_bps", "metric": "metric"}
_PAIR = {**_AT, "from": _ADDRESS, "to": _ADDRESS}
_NODE = {**_AT, "addr": _ADDRESS._replace(needed=True)}
_COMMITTED = {
    **_AT,
    "key": _TEXT._replace(needed=True),
    "acks": _COUNT,
    "absent": _Param(_address_list, lambda v: True, "- or a comma-separated list of addresses"),
    "value": _Param(str.encode, lambda v: True, "text"),
}
# Each check kind's recorded action to match (None: it reads the world) and parameters.
_CHECK_KINDS = {
    "connected": ("connect", _PAIR),
    "connect-failed": ("connect-failed", _PAIR),
    "queued": ("queued", _PAIR),
    "delivered": ("delivered", _PAIR),
    "expired": ("expired", _PAIR),
    "introduced": (None, _PAIR),
    "router": (None, _NODE),
    "no-router": (None, _NODE),
    "member": (None, _NODE),
    "isolated": (None, _NODE),
    "committed": (None, _COMMITTED),
}


class ScenarioParseError(ValueError):
    pass


class ScenarioError(RuntimeError):
    """A scripted event contradicts the world (e.g. send from an unknown node)."""


@dataclass(frozen=True)
class WorldConfig:
    critical_mass: int | None = None
    excerpt_cap: int = discovery.EXCERPT_CAP
    min_clients: int = 100
    beacon_period: int = 25
    refresh_period: int = 100
    intro_timeout: int | None = None
    commit_timeout: int = 100
    horizon: int | None = None


@dataclass(frozen=True)
class ScriptEvent:
    at: int
    kind: str
    addr: NodeAddress
    params: dict[str, object]  # as cast, without at= and addr=
    where: str  # name:line
    echo: str  # the params as written, sorted key=value pairs

    def trace(self) -> str:
        target = f"target={_text(self.addr)}"
        return f"{target} {self.echo}" if self.echo else target

    def reject(self, why: str) -> ScenarioError:
        return ScenarioError(f"{self.where}: {why}")


@dataclass(frozen=True)
class ScriptCheck:
    kind: str
    params: dict[str, object]  # as cast, without at=
    at: int | None
    line: int
    echo: str  # the params as written, sorted key=value pairs

    def trace(self) -> str:
        return f"check L{self.line} {self.kind}"


@dataclass(frozen=True)
class ScenarioScript:
    name: str
    config: WorldConfig
    events: tuple[ScriptEvent, ...]
    checks: tuple[ScriptCheck, ...]


def _split_pairs(tokens: list[str], where: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for tok in tokens:
        if "=" not in tok:
            raise ScenarioParseError(f"{where}: expected key=value, got {tok!r}")
        k, v = tok.split("=", 1)
        if not k or not v:
            raise ScenarioParseError(f"{where}: malformed pair {tok!r}")
        if k in out:
            raise ScenarioParseError(f"{where}: duplicate key {k!r}")
        out[k] = v
    return out


def _echo(params: dict[str, str], *skip: str) -> str:
    return " ".join(f"{k}={v}" for k, v in sorted(params.items()) if k not in skip)


def _check(params: dict[str, str], kind: str, typed: Mapping[str, _Param], where: str, unknown: str) -> dict:
    """The line's parameters cast by typed. Reject a line that carries a
    parameter that typed does not list, lacks one it needs, or carries a bad
    value, in that order; unknown names the line's parameters ("config key")."""
    extra = [k for k in params if k not in typed]
    if extra:
        raise ScenarioParseError(f"{where}: unknown {unknown} {extra[0]!r}")
    missing = [k for k, param in typed.items() if param.needed and k not in params]
    if missing:
        raise ScenarioParseError(f"{where}: {kind} needs {missing[0]}=")
    out = {}
    for key, (cast, test, wants, _needed) in typed.items():
        if key not in params:
            continue
        try:
            value = cast(params[key])
            ok = test(value)
        except ValueError:
            ok = False
        if not ok:
            raise ScenarioParseError(f"{where}: {key} must be {wants}, got {params[key]!r}")
        out[key] = value
    return out


def parse_scenario(text: str, name: str = "<scenario>") -> ScenarioScript:
    config = WorldConfig()
    events: list[ScriptEvent] = []
    checks: list[ScriptCheck] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{name}:{lineno}"
        tokens = line.split()
        if tokens[0] == "config":
            pairs = _split_pairs(tokens[1:], where)
            config = replace(config, **_check(pairs, "config", _CONFIG_PARAMS, where, unknown="config key"))
            continue
        if tokens[0] == "assert":
            if len(tokens) < 2:
                raise ScenarioParseError(f"{where}: assert needs a kind")
            kind = tokens[1]
            if kind not in _CHECK_KINDS:
                raise ScenarioParseError(f"{where}: unknown assert kind {kind!r}")
            pairs = _split_pairs(tokens[2:], where)
            params = _check(pairs, kind, _CHECK_KINDS[kind][1], where, unknown=f"{kind} parameter")
            at = params.pop("at", None)
            checks.append(ScriptCheck(kind, params, at, lineno, _echo(pairs, "at")))
            continue
        pairs = _split_pairs(tokens, where)
        missing = [k for k in ("at", "event", "addr") if k not in pairs]
        if missing:
            raise ScenarioParseError(f"{where}: event line missing {missing}")
        kind = pairs.pop("event")
        if kind not in _EVENT_PARAMS:
            raise ScenarioParseError(f"{where}: unknown event {kind!r}")
        params = _check(pairs, kind, _EVENT_PARAMS[kind], where, unknown=f"{kind} parameter")
        at, addr = params.pop("at"), params.pop("addr")
        events.append(ScriptEvent(at, kind, addr, params, where, _echo(pairs, "at", "addr")))
    return ScenarioScript(name=name, config=config, events=tuple(events), checks=tuple(checks))


def load_scenario(path: str | Path) -> ScenarioScript:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioParseError(f"{p.name}: not UTF-8 text at byte {exc.start}") from None
    return parse_scenario(text, name=p.name)


# ---------------------------------------------------------------------------
# World
# ---------------------------------------------------------------------------


@dataclass
class Neighborhood:
    """A neighborhood's membership snapshot, its members' metrics, sorted,
    its router, if it has one, and the state of its update rounds."""

    map: NeighborhoodMap
    # Sorted from the map it starts with; a join or a mapped stray inserts
    # into it, and nothing removes: membership never shrinks in a neighborhood.
    metrics: list[float] = field(init=False)
    router: NodeAddress | None = None
    elected: int = 0  # when the router was elected: its monitor ticks from here
    started: int = 0  # when its incarnation started: its beacons and refresh ticks count from here
    incarnation: int = 0  # router starts; only the latest one's refresh and failover run
    refreshing: int = 0  # the incarnation whose refresh tick is queued, if any
    rounds: int = 0  # rounds started, which number each round's stream
    round_due: int = 0  # the earliest next round start: the last start plus an update period
    pending: bool = False  # a round start is queued or a round is running
    changed: int = -1  # the unit of the last membership change
    split_at: int | None = None  # when the neighborhood split, which ended it

    def __post_init__(self):
        self.metrics = sorted(r.metric for r in self.map.members)


def _membership(addr: NodeAddress) -> sync.AttributeList:
    """A list that holds addr's membership entry alone."""
    return sync.AttributeList((sync.AttributeEntry(MEMBER_KEY, sync.SCOPE_LOCAL, b"", 1, addr),))


class Action(NamedTuple):
    """A recorded world action, as read from its report line: its fields are
    the text they render as, one space-separated key=value body. The world
    holds only the line, so no Action lives longer than its reader wants it."""

    at: int
    kind: str
    body: str

    @classmethod
    def parse(cls, line: str) -> Action:
        """The action that renders as line. The first "] " ends the time: a
        body may hold "]", but neither the time nor the kind does."""
        stamp, _, rest = line.partition("] ")
        kind, _, body = rest.partition(" ")
        return cls(int(stamp[1:]), kind, body)

    def fields(self) -> list[str]:
        return self.body.split(" ")

    def get(self, key: str) -> str | None:
        for field in self.fields():
            k, _, v = field.partition("=")
            if k == key:
                return v
        return None

    def render(self) -> str:
        return f"[{self.at:>6}] {self.kind} {self.body}"


class ActionLog(Sequence):
    """A run's actions as their report lines, in time order. Reading an item
    builds its Action, and a slice the log of its lines; the log itself holds
    strings, which the cyclic collector does not track."""

    __slots__ = ("lines",)

    def __init__(self, lines: list[str]):
        self.lines = lines

    def __len__(self) -> int:
        return len(self.lines)

    def __getitem__(self, i: int | slice) -> Action | ActionLog:
        return ActionLog(self.lines[i]) if isinstance(i, slice) else Action.parse(self.lines[i])

    def __iter__(self) -> Iterator[Action]:
        return map(Action.parse, self.lines)


def _absent_text(res: sync.CommitResult) -> str:
    return ",".join(map(_text, sorted(res.absentees))) or "-"


@dataclass(frozen=True)
class CheckResult:
    check: ScriptCheck
    passed: bool
    detail: str

    def render(self) -> str:
        when = f" at={self.check.at}" if self.check.at is not None else ""
        verdict = "PASS" if self.passed else "FAIL"
        out = f"L{self.check.line} {self.check.kind}{when} {self.check.echo}: {verdict}"
        if not self.passed and self.detail:
            out += f" ({self.detail})"
        return out


# World event payloads, one type each. World dispatches on the type, and each
# type's trace() renders its trace body: its keys in sorted order, then its type.


class RoundStart(NamedTuple):
    neighborhood: int
    hood: Neighborhood  # held, so that a start in the unit of its split reads the last map

    def trace(self) -> str:
        return f"neighborhood={self.neighborhood} type=round-start"


class RoundEnd(NamedTuple):
    neighborhood: int
    hood: Neighborhood
    members: tuple[NodeAddress, ...]  # the snapshot the start took
    latency: int

    def trace(self) -> str:
        return f"neighborhood={self.neighborhood} type=round-end"


class CommitDue(NamedTuple):
    commit: int  # index into World.commits
    receipts: tuple[tuple[NodeAddress, int, int], ...]  # (member, proposal_at, ack_at), drawn at the send

    def trace(self) -> str:
        return f"commit={self.commit} type=commit-due"


class IntroExpiry(NamedTuple):
    def trace(self) -> str:
        return "type=intro-expiry"


class RouterRefresh(NamedTuple):
    neighborhood: int
    incarnation: int  # the router start whose tick this is

    def trace(self) -> str:
        return f"neighborhood={self.neighborhood} type=router-refresh"


class Failover(NamedTuple):
    neighborhood: int
    incarnation: int  # the router start that went down

    def trace(self) -> str:
        return f"neighborhood={self.neighborhood} type=failover"


class World:
    """Mutable simulation state; every change happens inside an event handler.

    instances holds each instance's record as it downloaded; flips says
    whether it is live, and offline, not a map, what its neighborhood sees as
    offline. An instance is isolated exactly when it is known but not in nid_of.
    An instance's list in lists is a value that a handler replaces, never one
    it writes into: a round's end hands every member one merged list, and a
    download the kept list in own.
    """

    def __init__(self, engine: Engine, config: WorldConfig):
        self.engine = engine
        self.config = config
        self.registry = discovery.DownloadRegistry()
        self.directory: set[NodeAddress] = set()  # stray clients advertised in the search engine
        self.intros = discovery.IntroductionQueue()
        self._expiries: set[int] = set()  # the deadlines an IntroExpiry timer is queued for
        self.instances: dict[NodeAddress, NodeRecord] = {}
        self.flips: dict[NodeAddress, list[int]] = {}  # each instance's down and up units, in time order
        self.offline: set[NodeAddress] = set()  # down, or missed by a commit of its neighborhood since its last flip
        self.lists: dict[NodeAddress, sync.AttributeList] = {}  # each instance's attribute list
        self.own: dict[NodeAddress, sync.AttributeList] = {}  # each instance's own membership entry alone, never written
        self.mapped_at: dict[NodeAddress, int] = {}  # when each mapped instance was first mapped
        self.neighborhoods: dict[int, Neighborhood] = {}
        self.nid_of: dict[NodeAddress, int] = {}
        self.commits: list[sync.PendingCommit] = []
        self._lines: list[str] = []  # each action's report line, in time order
        # Actions stamped after the clock, as (at, order, line): a heap that
        # _act drains into _lines as the clock reaches them.
        self._later: list[tuple[int, int, str]] = []
        self._order = itertools.count()
        self.check_results: list[CheckResult] = []
        self._nids = itertools.count()  # neighborhood ids, each handed out once

    # -- plumbing ----------------------------------------------------------

    def _act(self, at: int, kind: str, body: str) -> None:
        """Record an action as its report line. Every action is stamped at the
        clock or later, so holding back the later ones until the clock reaches
        them keeps the log in time order, and in recording order at a tie."""
        line = f"[{at:>6}] {kind} {body}"
        later = self._later
        if at > self.engine.now:
            heapq.heappush(later, (at, next(self._order), line))
            return
        if later and later[0][0] <= at:
            self._settle(at)
        self._lines.append(line)

    def _settle(self, upto: float) -> None:
        """Move the held-back actions stamped at or before upto into the log."""
        later, append = self._later, self._lines.append
        while later and later[0][0] <= upto:
            append(heapq.heappop(later)[2])

    @property
    def actions(self) -> ActionLog:
        """Every action recorded so far, in time order, held-back ones included."""
        return ActionLog(self._lines + [line for _, _, line in sorted(self._later)])

    def _live(self, addr: NodeAddress | None) -> bool:
        flips = self.flips.get(addr)  # None for an unknown address
        return flips is not None and not len(flips) % 2

    def _live_at(self, addr: NodeAddress, t: int) -> bool:
        return not bisect_right(self.flips[addr], t) % 2  # the lines at t run first at t

    def _online(self, hood: Neighborhood) -> tuple[NodeRecord, ...]:
        """The records of the members that hood sees online: those not offline."""
        return tuple(r for r in hood.map.members if r.address not in self.offline)

    def _intro_timeout(self, sender: NodeAddress) -> int:
        """The configured timeout, or ten moderate update periods of sender's
        neighborhood, read from its sorted metrics (an isolated sender's: [0.0])."""
        if self.config.intro_timeout is not None:
            return self.config.intro_timeout
        nid = self.nid_of.get(sender)
        return 10 * sync.update_period("moderate", [0.0] if nid is None else self.neighborhoods[nid].metrics)

    # -- event dispatch ------------------------------------------------------

    def handle(self, engine: Engine, ev: SimEvent) -> None:
        """Run the handler of ev's record: a script line's by its kind, any other's by its type."""
        record = ev.payload
        on = self._ON.get(record.kind if type(record) is ScriptEvent else type(record))
        if on is None:
            raise ScenarioError(f"unknown event kind {ev.kind!r}")
        on(self, engine.now, record)

    # -- downloads and membership ---------------------------------------------

    def _on_download(self, now: int, line: ScriptEvent) -> None:
        addr, params = line.addr, line.params
        if addr in self.instances:
            raise line.reject(f"{addr} downloaded twice")
        rec = NodeRecord(addr, **{_RECORD_FIELDS[k]: v for k, v in params.items() if k in _RECORD_FIELDS})
        self.instances[addr] = rec
        self.flips[addr] = []
        self.own[addr] = self.lists[addr] = _membership(addr)
        excerpt = self.registry.register(addr, now, cap=self.config.excerpt_cap)
        stream = self.engine.stream(f"node/{_text(addr)}")
        result = discovery.bootstrap(excerpt, is_active=self._live, stream=stream, now=now)
        for attempt in result.attempts:
            if not attempt.alive:
                self._act(attempt.at, "connect-failed", f"from={_text(addr)} to={_text(attempt.target)}")
        self._queue_intros(result.finished_at, addr, result.dead_targets)
        if result.connected_to is not None:
            self._act(result.finished_at, "connect", f"from={_text(addr)} to={_text(result.connected_to)}")
            self._join_via(result.finished_at, rec, result.connected_to)
            # Joining can split the neighborhood, so resolve the current id. A dead
            # probe target among the members is already queued, and _queue_intros skips it.
            nid, nid_of = self.nid_of[addr], self.nid_of
            down = sorted(a for a in self.offline if nid_of.get(a) == nid and not self._live(a))
            self._queue_intros(result.finished_at, addr, down)
        else:
            self.directory.add(addr)
            for nid in self.neighborhoods:
                self._want_refresh(nid)
            self._act(result.finished_at, "registered", f"addr={_text(addr)}")
            self._act(result.finished_at, "isolated", f"addr={_text(addr)}")

    def _join_via(self, at: int, rec: NodeRecord, target: NodeAddress) -> None:
        nid = self.nid_of.get(target)
        if nid is None:
            # The target was isolated; the pair founds a fresh neighborhood.
            nid = next(self._nids)
            self.directory.discard(target)
            pair = [self.instances[target], rec]
            self.neighborhoods[nid] = Neighborhood(NeighborhoodMap.build(pair))
            self.nid_of[target] = nid
            self.mapped_at[target] = self.engine.now
        else:
            hood = self.neighborhoods[nid]
            hood.map = hood.map.add(rec)
            insort(hood.metrics, rec.metric)
        self.nid_of[rec.address] = nid
        self.mapped_at[rec.address] = self.engine.now
        self._act(at, "joined", f"addr={_text(rec.address)} neighborhood={nid}")
        self._post_membership(nid)

    def _post_membership(self, nid: int, news: bool = True) -> None:
        """Elect a router if there is none, start it and map the strays in its
        span; split past critical mass; else queue a refresh for any stray left
        in the span, and a round if membership changed: news says whether it
        did before this call."""
        hood, now = self.neighborhoods[nid], self.engine.now
        if hood.router is None:
            hood.router = elect_router(self._online(hood), self.config.min_clients)
            if hood.router is not None:
                self._act(now, "elected", f"addr={_text(hood.router)} neighborhood={nid}")
                hood.elected = now
                self._start_router(nid)
                news |= self._router_refresh(nid)
        cm = self.config.critical_mass
        if cm is not None and len(hood.map) > cm:
            self._apply_subdivide(nid, cm)
            return
        self._want_refresh(nid)
        if news:
            hood.changed = now
            if not hood.pending:
                self._queue_round(nid, hood)

    def _start_router(self, nid: int) -> None:
        hood = self.neighborhoods[nid]
        hood.started, hood.incarnation = self.engine.now, hood.incarnation + 1

    def _set_active(self, line: ScriptEvent, active: bool) -> int | None:
        """Flip the line's instance up or down, in its liveness history and in
        the offline view; return its neighborhood's id, if it has one."""
        addr = line.addr
        flips = self.flips.get(addr)
        if flips is None:
            raise line.reject(f"{line.kind} for unknown instance {addr}")
        flips.append(self.engine.now)
        if active:
            self.offline.discard(addr)
        else:
            self.offline.add(addr)
        return self.nid_of.get(addr)

    def _on_up(self, now: int, line: ScriptEvent) -> None:
        addr = line.addr
        if self._live(addr):
            return  # already up: like a down for a down instance, it changes nothing
        nid = self._set_active(line, True)
        delivered = self.intros.deliver_for(addr, now)
        if delivered:
            # The old list may be a round's, which other members hold too: replace it, never write into it.
            mine, own, to = self.lists[addr].copy(), self.own, f" to={_text(addr)}"
            for intro in delivered:
                mine.absorb(own[intro.sender])
                self._act(now, "delivered", f"from={_text(intro.sender)}{to}")
            self.lists[addr] = mine
        if nid is not None:
            if self.neighborhoods[nid].router == addr:
                # The router itself came back: it starts a new incarnation.
                self._start_router(nid)
            self._post_membership(nid)

    def _on_down(self, now: int, line: ScriptEvent) -> None:
        """Take the instance down. A router's down times its failover: the first
        monitor tick that finds its last beacon BEACON_TIMEOUT_FACTOR periods old.
        The line runs before a beacon due now, so the last one went out before
        now, at the incarnation's start or a whole number of periods after it."""
        addr = line.addr
        if addr in self.instances and not self._live(addr):
            return  # already down: like an up for a live instance, it changes nothing
        nid = self._set_active(line, False)
        hood = self.neighborhoods.get(nid)
        if hood is not None and hood.router == addr:
            period, start = self.config.beacon_period, hood.started
            stale = start + period * max(0, (now - 1 - start) // period) + BEACON_TIMEOUT_FACTOR * period
            due = hood.elected - (hood.elected - stale) // period * period  # the first tick at or after stale
            self.engine.schedule(due, KIND_TIMER, payload=Failover(nid, hood.incarnation))

    # -- update rounds -----------------------------------------------------

    def _queue_round(self, nid: int, hood: Neighborhood) -> None:
        hood.pending = True
        due = max(self.engine.now + 1, hood.round_due)
        self.engine.schedule(due, KIND_TIMER, payload=RoundStart(nid, hood))

    def _on_round_start(self, now: int, start: RoundStart) -> None:
        """Snapshot the live members mapped before this unit and time the
        round. A change in this unit is news for the next round."""
        nid, hood = start
        if hood.split_at is not None and hood.split_at < now:
            return
        instances, mapped_at, flips = self.instances, self.mapped_at, self.flips
        # Live: an even number of flips, as _live reads it, without a call per member.
        members = [a for a in (r.address for r in hood.map.members) if mapped_at[a] < now and not len(flips[a]) % 2]
        if len(members) < 2:
            hood.pending = False
            if hood.changed == now:
                self._queue_round(nid, hood)
            return
        stream = self.engine.stream(f"round/{nid}/{hood.rounds}")
        hood.rounds += 1
        n = len(members)
        size = round(math.sqrt(n / 3)) + 1
        chain_hops = [min(size, n - i) - 1 for i in range(0, n, size)]
        latency = timing.barrier_latency(chain_hops, stream.next_delays(2 * n - 2))
        hood.round_due = now + sync.update_period("moderate", [instances[a].metric for a in members])
        end = RoundEnd(nid, hood, tuple(members), latency)
        self.engine.schedule(now + latency, KIND_MESSAGE, payload=end)

    def _on_round_end(self, now: int, end: RoundEnd) -> None:
        """Give every member of the snapshot the merge of their lists, unless
        the neighborhood split in an earlier unit; queue the next round if
        membership changed in or after the unit the round started."""
        nid, hood, members, latency = end
        if hood.split_at is not None and hood.split_at < now:
            return
        lists = self.lists
        lists.update(dict.fromkeys(members, sync.merge_all([lists[a] for a in members])))
        self._act(now, "round", f"latency={latency} members={len(members)} neighborhood={nid}")
        hood.pending = False
        if hood.changed >= now - latency:
            self._queue_round(nid, hood)

    # -- introductions -----------------------------------------------------

    def _queue_intros(self, at: int, sender: NodeAddress, targets: Sequence[NodeAddress]) -> None:
        """Queue sender's introduction to each target, in order, that has none
        pending from it: one timeout, and one deadline, for the whole batch."""
        intros = self.intros
        fresh = [t for t in targets if (sender, t) not in intros]
        if not fresh:
            return
        deadline = at + self._intro_timeout(sender)
        head, tail = f"from={_text(sender)} to=", f" deadline={deadline}"
        for target in fresh:
            intros.add(sender, target, deadline=deadline)
            self._act(at, "queued", f"{head}{_text(target)}{tail}")
        if deadline not in self._expiries:  # a queued timer expires everything due at its unit
            self._expiries.add(deadline)
            self.engine.schedule(deadline, KIND_TIMER, payload=IntroExpiry())

    def _on_intro_expiry(self, now: int, _expiry: IntroExpiry) -> None:
        self._expiries.discard(now)
        for intro in self.intros.expire_due(now):
            self._act(now, "expired", f"from={_text(intro.sender)} to={_text(intro.target)}")

    # -- commits -------------------------------------------------------------

    def _on_send(self, now: int, line: ScriptEvent) -> None:
        addr, params = line.addr, line.params
        if not self._live(addr):
            raise line.reject(f"send from unavailable instance {addr}")
        nid = self.nid_of.get(addr)
        if nid is None:
            raise line.reject(f"send from unmapped instance {addr}")
        # A live proposer is online even if an earlier commit marked it offline.
        group = {addr, *(r.address for r in self._online(self.neighborhoods[nid]))}
        commit = sync.propose_commit(
            group=group,
            proposer=addr,
            key=params["key"],
            value=params.get("value", b""),
            now=now,
            timeout=params.get("timeout", self.config.commit_timeout),
            scope=params.get("scope", sync.SCOPE_LOCAL),
        )
        self.commits.append(commit)
        idx = len(self.commits) - 1
        self._act(now, "proposed", f"key={commit.key} by={_text(addr)} group={len(commit.group)}")
        if commit.resolution is not None:
            self._report_commit(now, commit)
            return
        stream = self.engine.stream(f"commit/{idx}")
        members = sorted(commit.group - {addr})
        k = len(members)
        delays = stream.next_delays(2 * k)  # every proposal's delay, then every ack's, in member order
        receipts = tuple((m, now + there, now + there + back) for m, there, back in zip(members, delays, delays[k:]))
        last, due = max(ack_at for _, _, ack_at in receipts), CommitDue(idx, receipts)
        if last < commit.deadline:
            self.engine.schedule(last, KIND_TIMER, payload=due)
        self.engine.schedule(commit.deadline, KIND_TIMER, payload=due)

    def _on_commit_due(self, now: int, due: CommitDue) -> None:
        """Resolve the commit over the receipts it got; before the deadline, only if it got all."""
        commit = self.commits[due.commit]
        if commit.resolution is not None:
            return
        deadline, live_at = commit.deadline, self._live_at
        got = [m for m, proposal_at, ack_at in due.receipts if ack_at < deadline and live_at(m, proposal_at)]
        if now < deadline and len(got) < len(due.receipts):
            return
        for member in got:
            sync.ack(commit, member, now)
        if commit.resolution is None:
            sync.expire(commit, now)
        self._report_commit(now, commit)

    def _report_commit(self, now: int, commit: sync.PendingCommit) -> None:
        res = commit.resolution
        self._act(now, "committed", f"key={commit.key} acks={len(res.acks)} absent={_absent_text(res)}")
        nid, nid_of = self.nid_of[commit.proposer], self.nid_of
        self.offline.update(a for a in res.absentees if nid_of[a] == nid)

    # -- subdivision ---------------------------------------------------------

    def _on_subdivide(self, now: int, line: ScriptEvent) -> None:
        nid = self.nid_of.get(line.addr)
        if nid is None:
            raise line.reject(f"subdivide via unmapped instance {line.addr}")
        cm = line.params.get("critical_mass", self.config.critical_mass)
        if cm is None:
            raise line.reject("subdivide needs critical_mass (param or config)")
        self._apply_subdivide(nid, cm)

    def _apply_subdivide(self, nid: int, critical_mass: int) -> None:
        now = self.engine.now
        nmap = self.neighborhoods[nid].map
        try:
            lower, upper = subdivide(nmap, critical_mass)
        except NoSplitNeeded:
            self._act(now, "no-split", f"neighborhood={nid} members={len(nmap)}")
            return
        self.neighborhoods.pop(nid).split_at = now
        for half in (lower, upper):
            hid = next(self._nids)
            self.neighborhoods[hid] = Neighborhood(half)
            for rec in half.members:
                self.nid_of[rec.address] = hid
            self._act(now, "subdivided", f"source={nid} neighborhood={hid} members={len(half)}")
            self._post_membership(hid)

    # -- router timers ---------------------------------------------------------

    def _want_refresh(self, nid: int) -> None:
        """Queue the next tick of a live router with a stray in its span, once per incarnation. One due
        now has not run: only a download line adds a stray or widens a span, and it runs first."""
        hood = self.neighborhoods[nid]
        if hood.refreshing == hood.incarnation or not self._live(hood.router):
            return
        if any(hood.map.members[0].address <= a <= hood.map.members[-1].address for a in self.directory):
            hood.refreshing = hood.incarnation
            start, period = hood.started, self.config.refresh_period
            due = start + period * max(1, -((start - self.engine.now) // period))  # k >= 1, not before now
            self.engine.schedule(due, KIND_TIMER, payload=RouterRefresh(nid, hood.incarnation))

    def _on_refresh(self, now: int, refresh: RouterRefresh) -> None:
        hood = self.neighborhoods.get(refresh.neighborhood)
        if hood is not None and hood.incarnation == refresh.incarnation and self._live(hood.router):
            hood.refreshing = 0
            self._post_membership(refresh.neighborhood, news=self._router_refresh(refresh.neighborhood))

    def _on_failover(self, now: int, failover: Failover) -> None:
        """Fail the router over, unless its neighborhood split or it came back since it went down."""
        nid = failover.neighborhood
        hood = self.neighborhoods.get(nid)
        if hood is None or hood.incarnation != failover.incarnation or self._live(hood.router):
            return
        self._act(now, "beacon-expired", f"addr={_text(hood.router)} neighborhood={nid}")
        hood.router = None
        self._post_membership(nid, news=False)
        if hood.router is None:
            self._act(now, "no-router", f"neighborhood={nid}")

    def _router_refresh(self, nid: int) -> bool:
        """Map the advertised strays inside the router's span; whether it mapped any."""
        hood, now = self.neighborhoods[nid], self.engine.now
        hood.map, added = discovery.router_refresh(hood.router, self.directory, hood.map, self.instances.__getitem__)
        for addr in added:
            self.nid_of[addr] = nid
            self.mapped_at[addr] = now
            insort(hood.metrics, self.instances[addr].metric)
            self._act(now, "mapped", f"addr={_text(addr)} neighborhood={nid}")
        return bool(added)

    # -- checks ---------------------------------------------------------------

    def _on_check(self, now: int, check: ScriptCheck) -> None:
        self.check_results.append(self._evaluate(check))

    def _evaluate(self, check: ScriptCheck) -> CheckResult:
        kind, p = check.kind, check.params
        action = _CHECK_KINDS[kind][0]
        if action is not None:
            # Each wanted field must be one of an action's fields, whole. Only a
            # line that names the kind after its time is parsed. A timed check
            # reads the lines stamped by its time: the log and the held-back
            # lines that the clock has reached, settled into it.
            if check.at is None:
                lines = self.actions.lines
            else:
                self._settle(check.at)
                lines = self._lines
            want = [f"{k}={_text(v)}" for k, v in p.items()]
            marker = f"] {action} "
            candidates = map(Action.parse, (line for line in lines if marker in line))
            ok = any(a.kind == action and all(f in a.fields() for f in want) for a in candidates)
            return CheckResult(check, ok, "" if ok else "no matching action")
        if kind == "introduced":
            # Whether a holder other than an owner holds the owner's membership entry.
            lists = self.lists
            owners = [p["from"]] if "from" in p else list(lists)
            holders = [p["to"]] if "to" in p else list(lists)
            ok = any(
                lists[h].get(MEMBER_KEY, o) is not None for h in holders if h in lists for o in owners if o != h
            )
            return CheckResult(check, ok, "" if ok else "no such entry held")
        addr = p.get("addr")
        if kind in ("router", "no-router"):
            if addr not in self.instances:
                return CheckResult(check, False, "not an instance")
            hood = self.neighborhoods.get(self.nid_of.get(addr))
            current = hood.router if hood is not None else None
            ok = current == addr if kind == "router" else current is None
            return CheckResult(check, ok, "" if ok else f"router is {current}")
        if kind == "member":
            ok = addr in self.nid_of
            return CheckResult(check, ok, "" if ok else "not in any neighborhood")
        if kind == "isolated":
            ok = addr in self.instances and addr not in self.nid_of
            return CheckResult(check, ok, "" if ok else "not isolated")
        if kind == "committed":
            # Every resolved commit has been reported by a committed action.
            for c in self.commits:
                res = c.resolution
                if res is None or c.key != p["key"]:
                    continue
                if "acks" in p and len(res.acks) != p["acks"]:
                    continue
                if "absent" in p and set(p["absent"]) != res.absentees:
                    continue
                if "value" in p and c.value != p["value"]:
                    continue
                return CheckResult(check, True, "")
            return CheckResult(check, False, "no matching commit")
        raise ScenarioError(f"unhandled check kind {kind!r}")

    # Handlers called as fn(self, now, record), a script line's by its kind, any other's by
    # type. Plain functions on the class: bound methods held by a World would make a cycle.
    _ON = {
        "download": _on_download,
        "up": _on_up,
        "down": _on_down,
        "send": _on_send,
        "subdivide": _on_subdivide,
        ScriptCheck: _on_check,
        RoundStart: _on_round_start,
        RoundEnd: _on_round_end,
        CommitDue: _on_commit_due,
        IntroExpiry: _on_intro_expiry,
        RouterRefresh: _on_refresh,
        Failover: _on_failover,
    }


@dataclass(frozen=True)
class ScenarioReport:
    script: ScenarioScript
    seed: int
    run: RunResult  # events processed, and whether the horizon cut the run
    trace: tuple[str, ...] | None  # one rendered line per event; None when not recorded
    actions: ActionLog  # the report's action lines, in time order; each read builds its Action
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def schedule_line(engine: Engine, line: ScriptEvent) -> SimEvent:
    """Schedule a script line as its own event; up and down run as node-up and node-down."""
    kind = {"up": "node-up", "down": "node-down"}.get(line.kind, line.kind)
    return engine.schedule(line.at, kind, payload=line)


def run_scenario(script: ScenarioScript, seed: int = DEFAULT_SEED, trace: bool = True) -> ScenarioReport:
    """Replay script; with trace, render each event's trace line as it is dispatched."""
    engine = Engine(seed)
    world = World(engine, script.config)
    last_at = 0
    for line in script.events:
        schedule_line(engine, line)
        last_at = max(last_at, line.at)
    for chk in script.checks:
        if chk.at is not None:
            engine.schedule(chk.at, "check", payload=chk)
            last_at = max(last_at, chk.at)
    horizon = script.config.horizon
    if horizon is None:
        horizon = last_at + DEFAULT_HORIZON_MARGIN

    lines: list[str] = []
    record, dispatch = lines.append, world.handle

    def traced(engine: Engine, ev: SimEvent) -> None:
        # An event's trace line: its time and kind, then its record's trace body: a
        # script line's target and parameters as written, a check as its line and
        # kind, a world event's payload as its type renders it.
        record(f"[{ev.at:>6}] {ev.kind} {ev.payload.trace()}")
        dispatch(engine, ev)

    run = engine.run(traced if trace else dispatch, horizon=horizon)
    world._settle(math.inf)  # the run is over: no action can come before the held-back ones
    for chk in script.checks:
        if chk.at is None:
            world.check_results.append(world._evaluate(chk))
        elif chk.at > horizon:  # still queued: the run never got there
            world.check_results.append(CheckResult(chk, False, f"after the horizon {horizon}"))
    ordered = sorted(world.check_results, key=lambda r: r.check.line)
    return ScenarioReport(
        script=script,
        seed=seed,
        run=run,
        trace=tuple(lines) if trace else None,
        actions=ActionLog(world._lines),
        checks=tuple(ordered),
    )


def _report_lines(report: ScenarioReport) -> Iterator[str]:
    """The report's lines; the trace block appears when the run recorded one."""
    yield f"scenario {report.script.name}"
    yield f"seed {report.seed}"
    if report.trace is not None:
        state = "truncated" if report.run.truncated else "complete"
        yield f"-- trace: {len(report.run)} events, {state} --"
        yield from report.trace
    yield f"-- actions: {len(report.actions)} --"
    yield from report.actions.lines
    yield f"-- checks: {len(report.checks)} --"
    for check in report.checks:
        yield check.render()
    verdict = "PASS" if report.passed else "FAIL"
    npass = sum(1 for c in report.checks if c.passed)
    yield f"-- result: {verdict} ({npass}/{len(report.checks)} checks) --"


def render_report(report: ScenarioReport, write: Callable[[str], object]) -> None:
    """Write the report's text through write as it renders it, in blocks of
    about 64 KiB of whole lines: each block but the last holds at least
    _REPORT_BLOCK characters and less than that plus one line, so the whole
    text is never held at once. The trace block appears when the run recorded
    one."""
    block: list[str] = []
    size = 0
    for line in _report_lines(report):
        block.append(line)
        size += len(line) + 1
        if size >= _REPORT_BLOCK:
            block.append("")
            write("\n".join(block))
            block, size = [], 0
    if block:
        block.append("")
        write("\n".join(block))
