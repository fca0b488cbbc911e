"""Analytic bisection and saturation bounds for cube address languages.

Every dimension ``i`` of a ``d``-dimensional cube defines a *direction
cut*: split the vertices by bit ``i``.  Because edges flip exactly one
bit, the edges crossing that cut are precisely the direction-``i``
edges, so the whole cut profile -- part sizes and crossing width per
direction -- falls out of an automaton DP over the same word pairs the
edge system tracks, split at each position, and the direction cuts
together tile the edge set
(``sum_i crossing(i) == |E|``, an invariant the tests enforce).

The **bisection estimate** picks the most balanced direction cut
(tie-break: fewest crossing edges, then lowest position).  For the
hypercube every direction cut is an exact bisection; for factor-avoiding
cubes direction cuts are the natural upper-bound family the paper's
partial-order arguments work with.

The **saturation bound** is the classical channel-load model, calibrated
to the simulator's link discipline (one packet per *directed* link per
cycle -- full-duplex channels, see :mod:`repro.network.simulator`).
Under uniform traffic at ``theta`` packets/node/cycle, the load offered
to each direction of a cut with ``crossing`` links separating ``n0``
and ``n1`` of the ``N`` nodes is ``theta * n0 * n1 / N``, and each
direction has ``crossing`` channels of capacity one, so the sustainable
injection rate is

    ``theta* = crossing * N / (n0 * n1)``

-- the textbook ``2B/N`` for a balanced cut, with ``B = 2 * crossing``
the bisection width in channels.  For the hypercube this gives
``theta* = 2.0`` packets/node/cycle, which the simulator's steady-state
knee reproduces exactly.  Simulated knees should sit at or below
``theta*``; a knee far *above* it means the model and the simulator
disagree about the machine being measured -- the
``analytic-divergence`` insight rule and the
:mod:`repro.analytic.crosscheck` driver both key off this bound.

This module imports only :mod:`repro.words` (via the FSM layer) --
never the network stack -- so the network layer can import it freely.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, List, Optional, Tuple

from repro.analytic.enumeration import edge_system, vertex_system
from repro.analytic.fsm import FSM

__all__ = [
    "DirectionCut",
    "analytic_saturation_bound",
    "analytic_summary",
    "bisection_estimate",
    "cube_model",
    "cut_profile",
    "parse_cube_name",
    "saturation_bound",
]


@dataclass(frozen=True)
class DirectionCut:
    """One direction cut: split on bit ``position``.

    ``n0`` / ``n1`` count the vertices with that bit 0 / 1, and
    ``crossing`` the edges across the cut (= the direction-``position``
    edges).  ``n0 + n1 == N`` for every cut of one cube.
    """

    position: int
    n0: int
    n1: int
    crossing: int


def cut_profile(fsm: FSM, d: int) -> List[DirectionCut]:
    """All ``d`` direction cuts of the ``d``-dimensional cube of
    ``fsm``'s language, exactly.

    One forward sweep stores the prefix weight vectors (``O(d * m)``
    memory), then one backward sweep streams the suffix single- and
    pair-weights (``O(m^2)`` live state), evaluating every cut on the
    way -- no per-position suffix tables.
    """
    if d < 0:
        raise ValueError(f"dimension must be non-negative, got {d}")
    m = fsm.num_states
    table = fsm.table
    acc = [1 if s in fsm.accepting else 0 for s in range(m)]

    # forward: prefix[j][s] = number of length-j prefixes reaching s
    prefix: List[List[int]] = [[0] * m]
    prefix[0][0] = 1
    for _ in range(d):
        cur = prefix[-1]
        nxt = [0] * m
        for s in range(m):
            v = cur[s]
            if v:
                nxt[table[s][0]] += v
                nxt[table[s][1]] += v
        prefix.append(nxt)

    # backward: suffix weights for single runs and run pairs, streamed
    suf = list(acc)                      # length-0 suffixes
    suf_pair = [[a * b for b in acc] for a in acc]
    cuts: List[DirectionCut] = []
    for i in range(d - 1, -1, -1):
        pre = prefix[i]
        n0 = n1 = crossing = 0
        for s in range(m):
            v = pre[s]
            if not v:
                continue
            t0, t1 = table[s]
            n0 += v * suf[t0]
            n1 += v * suf[t1]
            crossing += v * suf_pair[t0][t1]
        cuts.append(DirectionCut(position=i, n0=n0, n1=n1, crossing=crossing))
        # extend the suffixes by one bit (now length d - i)
        suf = [suf[table[s][0]] + suf[table[s][1]] for s in range(m)]
        suf_pair = [
            [
                suf_pair[table[s][0]][table[t][0]]
                + suf_pair[table[s][1]][table[t][1]]
                for t in range(m)
            ]
            for s in range(m)
        ]
    cuts.reverse()
    return cuts


def bisection_estimate(profile: List[DirectionCut]) -> Optional[DirectionCut]:
    """The most balanced direction cut: minimal ``|n0 - n1|``,
    tie-broken by fewest crossing edges, then lowest position.  ``None``
    for an empty profile (a 0-dimensional cube has no cuts)."""
    if not profile:
        return None
    return min(profile, key=lambda c: (abs(c.n0 - c.n1), c.crossing, c.position))


def saturation_bound(cut: Optional[DirectionCut]) -> float:
    """Uniform-traffic saturation bound ``theta* = crossing * N /
    (n0 * n1)`` for the given cut, in packets/node/cycle under the
    simulator's one-packet-per-directed-link discipline (``0.0`` when
    either side is empty -- no traffic ever crosses, so the cut bounds
    nothing)."""
    if cut is None or cut.n0 <= 0 or cut.n1 <= 0:
        return 0.0
    n = cut.n0 + cut.n1
    return cut.crossing * n / (1.0 * cut.n0 * cut.n1)


# -- topology-name bridge ----------------------------------------------------

_NAME_RE = re.compile(r"Q_(\d+)(?:\(([01]+(?:,[01]+)*)\))?")


def parse_cube_name(topology: str) -> Optional[Tuple[int, Tuple[str, ...]]]:
    """Recognize a cube topology as ``(d, factors)``.

    Accepts both the display-name form the sweep writes into records
    (``"Q_7"``, ``"Q_7(11)"``, ``"Q_7(00,11)"``) and the CLI spec form
    (``"Q:7"``, ``"hypercube:7"``, ``"11:7"``, ``"00,11:7"``).  An
    empty factor tuple means the hypercube.  Returns ``None`` for
    anything else -- callers treat that as "no analytic model".
    """
    m = _NAME_RE.fullmatch(topology)
    if m:
        factors = tuple(m.group(2).split(",")) if m.group(2) else ()
        return int(m.group(1)), factors
    name, sep, dim = topology.partition(":")
    if not sep:
        return None
    try:
        d = int(dim)
    except ValueError:
        return None
    if d < 0:
        return None
    if name in ("Q", "hypercube"):
        return d, ()
    parts = tuple(name.split(","))
    if not all(p and not set(p) - set("01") for p in parts):
        return None
    return d, parts


@lru_cache(maxsize=256)
def cube_model(factors: Tuple[str, ...]) -> FSM:
    return FSM.universal() if not factors else FSM.from_factors(factors)


@lru_cache(maxsize=256)
def analytic_summary(topology: str) -> Optional[Dict[str, Any]]:
    """The full analytic picture of a cube topology name/spec:
    exact node and edge counts, the bisection-estimate cut and the
    uniform-traffic saturation bound.  ``None`` when the name is not a
    recognizable (unfaulted) cube."""
    parsed = parse_cube_name(topology)
    if parsed is None:
        return None
    d, factors = parsed
    fsm = cube_model(factors)
    nodes = vertex_system(fsm).term(d)
    edges = edge_system(fsm).term(d)
    profile = cut_profile(fsm, d)
    cut = bisection_estimate(profile)
    return {
        "dimension": d,
        "factors": list(factors),
        "nodes": nodes,
        "edges": edges,
        "bisection": None if cut is None else {
            "position": cut.position,
            "n0": cut.n0,
            "n1": cut.n1,
            "crossing": cut.crossing,
        },
        "saturation_bound": saturation_bound(cut),
    }


def analytic_saturation_bound(topology: str) -> float:
    """``theta*`` for a cube topology name/spec; ``0.0`` when no
    analytic model applies (unrecognized name, empty cube, ``d = 0``).
    This is what fills the ``analytic_bound`` column of sweep records."""
    summary = analytic_summary(topology)
    if summary is None:
        return 0.0
    return summary["saturation_bound"]
