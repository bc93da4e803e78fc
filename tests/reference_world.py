"""The scenario world's rules, executed the plain way, for differential tests.

run_reference(script, seed) replays a parsed ScenarioScript unit by unit, from
0 to the horizon, and returns its check verdicts, in line order, and its
action lines. run_scenario must give the same verdicts and the same multiset
of action lines: the two may differ only in the order of lines within a unit.
Each rule of the peermesh.scenario docstring is stated here once, with its
state in dicts and no shortcut:

- at each unit, the script's event lines run first, in file order, then its
  timed checks, then the messages and timers due, in the order they were
  queued, then each neighborhood's router chains, by id: a beacon each
  beacon_period from the router's start while it is up, a monitor tick each
  beacon_period from its election, which fails a down router over once its
  last beacon is two periods old, and a refresh poll each refresh_period from
  its start, which maps the advertised strays in the neighborhood's span;
- each commit's proposal and each ack is a message of its own;
- the offline view is a flag per instance;
- an introduction's timeout is ten moderate update periods of the median
  metric of a scan of its sender's neighborhood;
- an attribute list is the set of owners whose membership entry it holds.

It never uses the Engine, the World or a private name of peermesh.scenario:
only the script types, and pieces with tests of their own. A change to the
world's model changes this file in the same commit.
"""

from __future__ import annotations

import math
from bisect import insort
from collections import defaultdict

from peermesh.discovery import DownloadRegistry
from peermesh.scenario import ScenarioScript, ScriptCheck, ScriptEvent
from peermesh.simcore import DEFAULT_SEED, RandomStream
from peermesh.sync import update_period
from peermesh.timing import barrier_latency
from peermesh.topology import NeighborhoodMap, NodeRecord, NoSplitNeeded, elect_router, subdivide

HORIZON_MARGIN = 1000  # a script without horizon= runs to its last time plus this
STALE_PERIODS = 2  # a beacon this many periods old has failed over
RECORD_FIELDS = {"uptime": "uptime_fraction", "capacity": "link_capacity_bps", "metric": "metric"}
# The check kinds that match a recorded action, and the action's kind.
ACTION_CHECKS = {"connected": "connect"} | {k: k for k in ("connect-failed", "queued", "delivered", "expired")}


def run_reference(script: ScenarioScript, seed: int = DEFAULT_SEED) -> tuple[list[bool], list[str]]:
    """The verdicts, in line order, and the action lines of a replay of script;
    a line that contradicts the world raises the ScenarioError World raises."""
    return Reference(script, seed).run()


class Reference:
    def __init__(self, script: ScenarioScript, seed: int):
        self.script, self.config, self.seed = script, script.config, seed
        self.now = 0
        self.agenda: dict[int, list] = defaultdict(list)  # unit -> (handler, *args), in queue order
        self.actions: list[tuple[int, str, str]] = []  # (stamp, kind, body), as recorded
        self.registry = DownloadRegistry()
        self.records: dict = {}  # address -> NodeRecord, as downloaded
        self.up: dict = {}  # address -> whether it is live
        self.offline: dict = {}  # address -> whether its neighborhood sees it offline
        self.held: dict = {}  # address -> frozenset of the owners whose entry its list holds
        self.directory: set = set()  # advertised strays
        self.intros: dict = {}  # (sender, target) -> deadline, pending
        self.hoods: dict[int, dict] = {}  # live neighborhoods by id
        self.nid_of: dict = {}
        self.mapped_at: dict = {}
        self.commits: list[dict] = []
        self.next_nid = 0

    def run(self) -> tuple[list[bool], list[str]]:
        script = self.script
        lines, checks = defaultdict(list), defaultdict(list)
        for line in script.events:
            lines[line.at].append(line)
        for check in script.checks:
            if check.at is not None:
                checks[check.at].append(check)
        horizon = self.config.horizon
        if horizon is None:
            horizon = max([*lines, *checks], default=0) + HORIZON_MARGIN
        verdicts = {}
        for t in range(horizon + 1):
            self.now = t
            for line in lines[t]:
                self.ON[line.kind](self, line)
            for check in checks[t]:
                verdicts[check.line] = self.check(check)
            while t in self.agenda:
                for handler, *args in self.agenda.pop(t):
                    handler(*args)
            for nid in list(self.hoods):
                self.router_chains(nid)
        for check in script.checks:
            if check.at is None:
                verdicts[check.line] = self.check(check)
            elif check.at > horizon:
                verdicts[check.line] = False
        return [verdicts[n] for n in sorted(verdicts)], [f"[{at:>6}] {k} {body}" for at, k, body in self.actions]

    def queue(self, at: int, handler, *args) -> None:
        self.agenda[at].append((handler, *args))

    def act(self, at: int, kind: str, body: str) -> None:
        self.actions.append((at, kind, body))

    def on_download(self, line: ScriptEvent) -> None:
        addr, now = line.addr, self.now
        if addr in self.records:
            raise line.reject(f"{addr} downloaded twice")
        fields = {RECORD_FIELDS[k]: v for k, v in line.params.items() if k in RECORD_FIELDS}
        self.records[addr] = NodeRecord(addr, **fields)
        self.up[addr], self.offline[addr], self.held[addr] = True, False, frozenset([addr])
        # Probe the excerpt nearest first, one hop delay each, until a live peer answers.
        stream, at, dead, peer = RandomStream(self.seed, f"node/{addr}"), now, [], None
        for target in self.registry.register(addr, now, cap=self.config.excerpt_cap):
            at += stream.hop_delay()
            if self.up[target]:
                peer = target
                break
            dead.append(target)
            self.act(at, "connect-failed", f"from={addr} to={target}")
        self.queue_intros(at, addr, dead)
        if peer is None:
            self.directory.add(addr)
            self.act(at, "registered", f"addr={addr}")
            self.act(at, "isolated", f"addr={addr}")
            return
        self.act(at, "connect", f"from={addr} to={peer}")
        nid = self.nid_of.get(peer)
        if nid is None:  # an isolated peer founds a neighborhood with the newcomer
            self.directory.discard(peer)
            nid = self.new_hood([peer])
        insort(self.hoods[nid]["members"], addr)
        self.nid_of[addr], self.mapped_at[addr] = nid, now
        self.act(at, "joined", f"addr={addr} neighborhood={nid}")
        self.post_membership(nid)
        members = self.hoods[self.nid_of[addr]]["members"]  # the join may have split it
        self.queue_intros(at, addr, [a for a in members if not self.up[a]])

    def on_up(self, line: ScriptEvent) -> None:
        addr = line.addr
        if self.up.get(addr):
            return
        if addr not in self.records:
            raise line.reject(f"up for unknown instance {addr}")
        self.up[addr], self.offline[addr] = True, False
        for (sender, target), deadline in list(self.intros.items()):
            if target == addr and self.now < deadline:
                del self.intros[sender, target]
                self.held[addr] = self.held[addr] | {sender}
                self.act(self.now, "delivered", f"from={sender} to={addr}")
        nid = self.nid_of.get(addr)
        if nid is not None:
            hood = self.hoods[nid]
            if hood["router"] == addr:
                self.start_router(hood)
            self.post_membership(nid)

    def on_down(self, line: ScriptEvent) -> None:
        addr = line.addr
        if addr not in self.records:
            raise line.reject(f"down for unknown instance {addr}")
        self.up[addr], self.offline[addr] = False, True

    def on_send(self, line: ScriptEvent) -> None:
        addr, params, now = line.addr, line.params, self.now
        if not self.up.get(addr):
            raise line.reject(f"send from unavailable instance {addr}")
        nid = self.nid_of.get(addr)
        if nid is None:
            raise line.reject(f"send from unmapped instance {addr}")
        group = {addr} | {a for a in self.hoods[nid]["members"] if not self.offline[a]}
        timeout = params.get("timeout", self.config.commit_timeout)
        commit = {"key": params["key"], "value": params.get("value", b""), "proposer": addr, "group": group}
        commit |= {"acks": {addr}, "deadline": now + timeout, "resolved": False}
        idx = len(self.commits)
        self.commits.append(commit)
        self.act(now, "proposed", f"key={commit['key']} by={addr} group={len(group)}")
        if group == {addr}:
            self.resolve(commit)
            return
        members = sorted(group - {addr})
        delays = RandomStream(self.seed, f"commit/{idx}").next_delays(2 * len(members))
        for member, there, back in zip(members, delays, delays[len(members) :]):
            self.queue(now + there, self.on_proposal, commit, member, back)
        self.queue(commit["deadline"], self.resolve, commit)

    def on_subdivide(self, line: ScriptEvent) -> None:
        nid = self.nid_of.get(line.addr)
        if nid is None:
            raise line.reject(f"subdivide via unmapped instance {line.addr}")
        critical_mass = line.params.get("critical_mass", self.config.critical_mass)
        if critical_mass is None:
            raise line.reject("subdivide needs critical_mass (param or config)")
        self.split(nid, critical_mass)

    ON = {"download": on_download, "up": on_up, "down": on_down, "send": on_send, "subdivide": on_subdivide}

    def new_hood(self, members: list) -> int:
        nid, self.next_nid = self.next_nid, self.next_nid + 1
        # members: sorted. The monitor ticks from elected, beacons and polls from
        # started, the incarnation's start. pending: a round start is queued or a
        # round runs; changed: the unit of the last membership change.
        hood = dict(members=members, router=None, elected=0, started=0, beacon=0, rounds=0, round_due=0)
        self.hoods[nid] = hood | dict(pending=False, changed=-1, split_at=None)
        for addr in members:
            self.nid_of[addr] = nid
            self.mapped_at.setdefault(addr, self.now)
        return nid

    def post_membership(self, nid: int, news: bool = True) -> None:
        """Elect a router if there is none, mapping the strays in its span;
        split past critical mass; else queue a round on news."""
        hood = self.hoods[nid]
        if hood["router"] is None:
            online = [self.records[a] for a in hood["members"] if not self.offline[a]]
            router = elect_router(online, self.config.min_clients)
            if router is not None:
                hood["router"], hood["elected"] = router, self.now
                self.act(self.now, "elected", f"addr={router} neighborhood={nid}")
                self.start_router(hood)
                news |= self.map_strays(nid)
        critical_mass = self.config.critical_mass
        if critical_mass is not None and len(hood["members"]) > critical_mass:
            self.split(nid, critical_mass)
            return
        if news:
            hood["changed"] = self.now
            if not hood["pending"]:
                self.queue_round(nid, hood)

    def start_router(self, hood: dict) -> None:
        hood["started"] = hood["beacon"] = self.now

    def map_strays(self, nid: int) -> bool:
        hood = self.hoods[nid]
        members = hood["members"]
        span = [a for a in sorted(self.directory) if members[0] <= a <= members[-1]]
        for addr in span:
            self.directory.discard(addr)
            insort(members, addr)
            self.nid_of[addr], self.mapped_at[addr] = nid, self.now
            self.act(self.now, "mapped", f"addr={addr} neighborhood={nid}")
        return bool(span)

    def split(self, nid: int, critical_mass: int) -> None:
        hood = self.hoods[nid]
        try:
            halves = subdivide(NeighborhoodMap.build(self.records[a] for a in hood["members"]), critical_mass)
        except NoSplitNeeded:
            self.act(self.now, "no-split", f"neighborhood={nid} members={len(hood['members'])}")
            return
        del self.hoods[nid]
        hood["split_at"] = self.now  # its rounds of this unit still read its last members
        for half in halves:
            hid = self.new_hood([r.address for r in half.members])
            self.act(self.now, "subdivided", f"source={nid} neighborhood={hid} members={len(half)}")
            self.post_membership(hid)

    def router_chains(self, nid: int) -> None:
        """The unit's beacon, monitor tick and refresh poll of nid's router."""
        hood, t = self.hoods.get(nid), self.now
        if hood is None or hood["router"] is None:
            return
        period, since = self.config.beacon_period, t - hood["started"]
        if not self.up[hood["router"]]:
            if (t - hood["elected"]) % period == 0 and t - hood["beacon"] >= STALE_PERIODS * period:
                self.fail_over(nid, hood)
            return
        if since % period == 0:
            hood["beacon"] = t
        if since > 0 and since % self.config.refresh_period == 0 and self.map_strays(nid):
            self.post_membership(nid)

    def fail_over(self, nid: int, hood: dict) -> None:
        self.act(self.now, "beacon-expired", f"addr={hood['router']} neighborhood={nid}")
        hood["router"] = None
        self.post_membership(nid, news=False)
        if hood["router"] is None:
            self.act(self.now, "no-router", f"neighborhood={nid}")

    def queue_round(self, nid: int, hood: dict) -> None:
        hood["pending"] = True
        self.queue(max(self.now + 1, hood["round_due"]), self.round_start, nid, hood)

    def void(self, hood: dict) -> bool:
        return hood["split_at"] is not None and hood["split_at"] < self.now

    def round_start(self, nid: int, hood: dict) -> None:
        if self.void(hood):
            return
        now = self.now
        members = [a for a in hood["members"] if self.mapped_at[a] < now and self.up[a]]
        if len(members) < 2:
            hood["pending"] = False
            if hood["changed"] == now:
                self.queue_round(nid, hood)
            return
        stream = RandomStream(self.seed, f"round/{nid}/{hood['rounds']}")
        hood["rounds"] += 1
        n = len(members)
        size = round(math.sqrt(n / 3)) + 1
        latency = barrier_latency([min(size, n - i) - 1 for i in range(0, n, size)], stream.next_delays(2 * n - 2))
        hood["round_due"] = now + update_period("moderate", [self.records[a].metric for a in members])
        self.queue(now + latency, self.round_end, nid, hood, members, latency)

    def round_end(self, nid: int, hood: dict, members: list, latency: int) -> None:
        if self.void(hood):
            return
        merged = frozenset().union(*(self.held[a] for a in members))
        for addr in members:
            self.held[addr] = merged
        self.act(self.now, "round", f"latency={latency} members={len(members)} neighborhood={nid}")
        hood["pending"] = False
        if hood["changed"] >= self.now - latency:
            self.queue_round(nid, hood)

    def queue_intros(self, at: int, sender, targets: list) -> None:
        fresh = [t for t in targets if (sender, t) not in self.intros]
        if not fresh:
            return
        timeout = self.config.intro_timeout
        if timeout is None:
            nid = self.nid_of.get(sender)
            metrics = [0.0] if nid is None else [self.records[a].metric for a in self.hoods[nid]["members"]]
            timeout = 10 * update_period("moderate", metrics)
        for target in fresh:
            self.intros[sender, target] = at + timeout
            self.act(at, "queued", f"from={sender} to={target} deadline={at + timeout}")
            self.queue(at + timeout, self.expire, sender, target)

    def expire(self, sender, target) -> None:
        if self.intros.get((sender, target)) == self.now:
            del self.intros[sender, target]
            self.act(self.now, "expired", f"from={sender} to={target}")

    def on_proposal(self, commit: dict, member, back: int) -> None:
        if self.up[member]:
            self.queue(self.now + back, self.on_ack, commit, member)

    def on_ack(self, commit: dict, member) -> None:
        if not commit["resolved"] and self.now < commit["deadline"]:
            commit["acks"].add(member)
            if commit["acks"] == commit["group"]:
                self.resolve(commit)

    def resolve(self, commit: dict) -> None:
        """Resolve over the acks so far; the absentees still in the proposer's neighborhood go offline."""
        if commit["resolved"]:
            return
        commit["resolved"] = True
        absent = commit["absent"] = commit["group"] - commit["acks"]
        text = ",".join(str(a) for a in sorted(absent)) or "-"
        self.act(self.now, "committed", f"key={commit['key']} acks={len(commit['acks'])} absent={text}")
        nid = self.nid_of[commit["proposer"]]
        for addr in absent:
            if self.nid_of[addr] == nid:
                self.offline[addr] = True

    def check(self, check: ScriptCheck) -> bool:
        kind, p = check.kind, check.params
        if kind in ACTION_CHECKS:
            want = [f"{k}={v}" for k, v in p.items()]
            return any(
                k == ACTION_CHECKS[kind] and all(f in body.split(" ") for f in want)
                for at, k, body in self.actions
                if check.at is None or at <= check.at
            )
        if kind == "introduced":
            owners = [p["from"]] if "from" in p else list(self.held)
            holders = [p["to"]] if "to" in p else list(self.held)
            return any(o in self.held[h] for h in holders if h in self.held for o in owners if o != h)
        if kind == "committed":
            return any(
                c["resolved"]
                and c["key"] == p["key"]
                and p.get("acks", len(c["acks"])) == len(c["acks"])
                and set(p.get("absent", c["absent"])) == c["absent"]
                and p.get("value", c["value"]) == c["value"]
                for c in self.commits
            )
        addr = p["addr"]
        if kind == "member":
            return addr in self.nid_of
        if kind == "isolated":
            return addr in self.records and addr not in self.nid_of
        hood = self.hoods.get(self.nid_of.get(addr))
        router = hood["router"] if hood is not None else None
        return addr in self.records and (router == addr if kind == "router" else router is None)
