"""Seeded input generators for the benchmark workloads.

Everything here is plain Python data or text: the program under test only
ever sees what these functions return. `random.Random` seeded with a string
hashes it with SHA-512, so the same seed gives the same inputs on every
platform and under every PYTHONHASHSEED.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# timing tables / figure9 at the acceptance suite's trial count
MC_TRIALS = 1500

# (members, cluster size) of the update-round neighborhoods
ROUND_SHAPES = ((64, 8), (256, 16), (1024, 32))
ROUND_LEGS = ("live", "down", "holder-loss")
# Only the all-live leg runs at 1024 members. The other legs would each cost
# as much again there and show nothing their rounds at 256 do not, and
# shorter rounds give every run more of them to take the median over.
LEG_SHAPES = {"live": ROUND_SHAPES, "down": ROUND_SHAPES[:2], "holder-loss": ROUND_SHAPES[:2]}
OWN_ENTRIES = 2  # scoped entries each member owns
KEYS = ("cpu", "disk", "lang", "mood", "nick", "port", "role", "zone")
KEY_SCOPE = {k: s for k, s in zip(KEYS, ("local", "global", "group:ops", "local", "global", "local", "group:ops", "global"))}
CLASSES = ("aggressive", "moderate", "light")
VALUES = tuple(f"v{i}" for i in range(6))
# The holder-loss leg reproduces one fault on every run, so its inputs
# must not depend on the workload seed.
HOLDER_LOSS_SEED = 7919

WORLD_FLAT = dict(downloads=400, critical_mass=None)
WORLD_SPLIT = dict(downloads=1200, critical_mass=64)
ANCHORS = 16  # first downloads: never churned, always mapped, proposers of every send
CHURN_SHARE = 0.10
SEND_EVERY = 25
DOWNLOAD_STEP = 5  # virtual units between consecutive downloads


def addr_text(value: int) -> str:
    return ".".join(str((value >> s) & 0xFF) for s in (24, 16, 8, 0))


@dataclass(frozen=True)
class RoundInput:
    """One update round: members, seed entries and who is down or dropped.

    entries: (holder, owner, key, scope, update_class, value, version)
    tuples. A holder may also keep a copy of another member's slot at another
    version, so last-writer-wins conflicts occur during the merge.
    """

    leg: str
    cluster_size: int
    members: tuple[int, ...]  # sorted 32-bit addresses
    entries: tuple[tuple[int, int, str, str, str, str, int], ...]
    down: tuple[int, ...]  # inactive from the start ("down" leg)
    victim_cluster: int | None  # leader dropped after the ascending ring reaches it ("holder-loss")


def round_input(seed: int, members: int, cluster_size: int, leg: str) -> RoundInput:
    if leg == "holder-loss":
        seed = HOLDER_LOSS_SEED
    rng = random.Random(f"round/{members}/{cluster_size}/{leg}/{seed}")
    addrs = tuple(sorted(0x0A000000 + off for off in rng.sample(range(1, 1 << 22), members)))
    entries = []
    for holder in addrs:
        for key in rng.sample(KEYS, OWN_ENTRIES):
            entries.append(
                (holder, holder, key, KEY_SCOPE[key], rng.choice(CLASSES), rng.choice(VALUES), rng.randint(1, 4))
            )
        if rng.random() < 0.5:
            # A cached copy of someone else's slot, possibly newer or older.
            owner = rng.choice(addrs)
            key = rng.choice(KEYS)
            if owner != holder:
                entries.append(
                    (holder, owner, key, KEY_SCOPE[key], rng.choice(CLASSES), rng.choice(VALUES), rng.randint(1, 4))
                )
    down: tuple[int, ...] = ()
    victim = None
    if leg == "down":
        non_leaders = [a for i, a in enumerate(addrs) if i % cluster_size]
        down = tuple(sorted(rng.sample(non_leaders, members // 16)))
    elif leg == "holder-loss":
        victim = (members // cluster_size) // 2  # a middle leader, never the ring's top
    return RoundInput(leg, cluster_size, addrs, tuple(entries), down, victim)


def round_inputs(seed: int) -> list[RoundInput]:
    return [round_input(seed, n, c, leg) for leg in ROUND_LEGS for n, c in LEG_SHAPES[leg]]


@dataclass(frozen=True)
class WorldInput:
    text: str
    script_events: int  # download/up/down/send lines


def world_script(seed: int, downloads: int, critical_mass: int | None) -> WorldInput:
    """A scenario script the world accepts on every seed.

    Downloads arrive every ~5 units at distinct addresses in 10.0.0.0/14.
    The first ANCHORS instances are never churned: #1 stands alone until #2
    joins it, and each later anchor finds only live anchors in its excerpt,
    so all of them are mapped. Every send comes from an anchor. About 10% of
    the other instances go down once after their download and come back
    later, some after their queued introductions expired.
    """
    rng = random.Random(f"world/{downloads}/{critical_mass}/{seed}")
    addrs = [addr_text(0x0A000000 + off) for off in rng.sample(range(1, 1 << 18), downloads)]
    times = [DOWNLOAD_STEP * i + rng.randrange(DOWNLOAD_STEP) for i in range(downloads)]
    lines: list[tuple[int, int, str]] = []  # (at, order, text)
    for i, (addr, at) in enumerate(zip(addrs, times)):
        domain = rng.choice(("net", "org", "com"))
        uptime = rng.choice(("0.85", "0.9", "0.95", "0.99"))
        capacity = rng.choice(("64000", "256000", "1000000"))
        metric = rng.randint(0, 40)
        lines.append(
            (at, len(lines), f"at={at} event=download addr={addr} domain={domain} uptime={uptime} capacity={capacity} metric={metric}")
        )
    anchors = addrs[:ANCHORS]
    churners = rng.sample(range(ANCHORS, downloads), round(CHURN_SHARE * downloads))
    for i in churners:
        down_at = times[i] + rng.randint(1, 400)
        up_at = down_at + rng.randint(50, 900)
        lines.append((down_at, len(lines), f"at={down_at} event=down addr={addrs[i]}"))
        lines.append((up_at, len(lines), f"at={up_at} event=up addr={addrs[i]}"))
    sends = []
    for i in range(SEND_EVERY - 1, downloads, SEND_EVERY):
        at = times[i] + 1
        key = f"k{len(sends)}"
        scope = rng.choice(("local", "global", "group:ops"))
        lines.append((at, len(lines), f"at={at} event=send addr={rng.choice(anchors)} key={key} value=x{i} scope={scope}"))
        sends.append(key)
    lines.sort()
    out = [f"# generated world: {downloads} downloads, seed {seed}"]
    if critical_mass is not None:
        out.append(f"config critical_mass={critical_mass} min_clients=16")
    out.extend(text for _, _, text in lines)
    out.append(f"assert isolated at={times[1] - 1} addr={anchors[0]}")
    out.append(f"assert connected from={anchors[1]} to={anchors[0]}")
    out.append(f"assert introduced from={anchors[2]}")
    out.extend(f"assert member addr={a}" for a in anchors)
    out.extend(f"assert committed key={k}" for k in sends)
    return WorldInput(text="\n".join(out) + "\n", script_events=len(lines))
