"""Traffic-pattern library for the network simulator.

Interconnection papers never judge a topology on uniform random traffic
alone: adversarial permutations (transpose, bit reversal, tornado),
hotspots and bursty sources are what separate a fat bisection from a thin
one.  Every generator here produces the simulator's native format -- a
``(P, 3)`` int64 array of ``(cycle, src, dst)`` rows, sorted
lexicographically, with ``src != dst`` -- and is deterministic given
``seed``.

Random draws come from one small counter-based generator written here
(:func:`draw_words`): word ``i`` of a ``(seed, stream)`` pair is the
SplitMix64 finaliser applied to ``key(seed, stream) + (i + 1) * gamma``,
so any slice of a stream is one vectorised expression, and bounded
integers come from the multiply-shift reduction
``((word >> 32) * bound) >> 32`` (bias below ``bound / 2**32``).  Each
pattern, and each field it draws (source, destination, cycle, ...),
reads its own stream, so patterns at one seed are independent.  The
generator uses 64-bit integer arithmetic only -- no floating-point
transcendental, no ``random`` or NumPy distribution -- so the streams are
pinned by this file: neither a NumPy upgrade nor a different CPU can move
them (``tests/network/test_traffic.py`` pins their digests).

Patterns are *topology-aware*: on word-addressed topologies (all the cube
families) the structured patterns act on the binary node words, and fall
back to an index-space mapping whenever the transformed word is not a
vertex (generalized Fibonacci cubes are not closed under e.g. reversal
for non-palindromic factors).  The fallback keeps every pattern total on
every topology, so sweeps can run the same scenario grid everywhere.  A
structured pattern's destination map is computed once per topology and
cached on it.

The registry :data:`PATTERNS` / :func:`make_traffic` is what the sweep
harness and the ``repro sweep`` CLI iterate over.  The collective
operations of :mod:`repro.network.collectives` are registered too
(``broadcast``/``reduce``/``allgather``/``alltoall``/``ring``) in an
*open-loop* form: the schedule's rounds become injection waves spread
over the window (repeated from seeded roots until ``num_packets``
rows exist), so collectives slot into the same load-sweep grids as
every other pattern -- the *closed-loop* barriered form lives in
:func:`repro.network.collectives.run_collective` and the sweep's
``--collective`` axis.  Flow-controlled runs
(wormhole / virtual cut-through) pair a traffic array with per-packet
flit counts from :func:`flit_sizes`, aligned row for row.  Under a fault
plan (:class:`~repro.network.faults.FaultPlan`), :func:`make_traffic`
removes the rows whose *source* is already dead at its injection cycle
-- failed nodes stop injecting, while dead destinations and in-flight
losses stay the simulator's accounting.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.network.faults import FaultPlan
from repro.network.topology import Topology

__all__ = [
    "PATTERNS",
    "bit_reversal_traffic",
    "bursty_traffic",
    "collective_traffic",
    "draw_words",
    "flit_sizes",
    "hotspot_traffic",
    "make_traffic",
    "permutation_traffic",
    "tornado_traffic",
    "transpose_traffic",
    "uniform_traffic",
]

Traffic = np.ndarray  # (P, 3) int64 rows (cycle, src, dst)

# -- the counter-based generator ---------------------------------------------

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's increment (2**64 / golden ratio)
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# a generator's stream ids are its base plus one offset per drawn field,
# so two patterns at one seed draw independent traffic and adding a field
# never shifts another
_SRC, _DST, _CYCLE, _HOT, _ORDER, _LENGTH, _ROOT, _WAVE = range(8)
_BASE = {
    name: 16 * (i + 1)
    for i, name in enumerate((
        "uniform", "permutation", "transpose", "bitrev", "tornado",
        "hotspot", "bursty", "broadcast", "reduce", "allgather", "alltoall",
        "ring", "flits",
    ))
}


def _mix_int(z: int) -> int:
    """The SplitMix64 finaliser on one Python int (mod 2**64)."""
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def draw_words(seed: int, stream: int, index) -> np.ndarray:
    """Raw 64-bit words ``index`` of the ``(seed, stream)`` sequence.

    Word ``i`` is ``mix(key + (i + 1) * gamma)`` with
    ``key = mix(mix(seed) + stream * gamma)``, all mod ``2**64`` --
    SplitMix64's output sequence from state ``key``, addressed by
    counter, so any set of indices is drawn in one vectorised pass and a
    stream never depends on how it is sliced.
    """
    key = _mix_int((_mix_int(seed & _MASK) + stream * _GAMMA) & _MASK)
    z = np.asarray(index, dtype=np.uint64) + np.uint64(1)
    z *= np.uint64(_GAMMA)
    z += np.uint64(key)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def _below(words: np.ndarray, bound: int) -> np.ndarray:
    """Multiply-shift reduction of words to ints in ``[0, bound)``."""
    if not 0 < bound <= 1 << 32:
        raise ValueError(f"bounded draw needs 0 < bound <= 2**32, got {bound}")
    hi = words >> np.uint64(32)
    return ((hi * np.uint64(bound)) >> np.uint64(32)).astype(np.int64)


def _draw(seed: int, stream: int, count: int, bound: int) -> np.ndarray:
    """``count`` ints uniform in ``[0, bound)`` from one stream."""
    return _below(draw_words(seed, stream, np.arange(count, dtype=np.uint64)), bound)


def _chance(fraction: float) -> np.uint64:
    """The 53-bit threshold a word's top bits fall below with probability
    ``fraction`` (exact: scaling a double by 2**53 rounds nothing)."""
    return np.uint64(int(fraction * (1 << 53)))


def _rows(cycle, src, dst, n: int) -> Traffic:
    """The rows ``(cycle, src, dst)`` (nodes below ``n``) sorted
    lexicographically: one sort of the packed key ``(cycle * n + src) *
    n + dst`` when it fits in 63 bits, a three-key lexsort otherwise."""
    cycle, src, dst = (np.asarray(a, dtype=np.int64) for a in (cycle, src, dst))
    if cycle.size and (int(cycle.max()) + 1) * n * n >= 1 << 63:
        out = np.stack((cycle, src, dst), axis=1)
        return out[np.lexsort((dst, src, cycle))]
    key = np.sort((cycle * n + src) * n + dst)
    out = np.empty((key.size, 3), dtype=np.int64)
    rest, out[:, 2] = np.divmod(key, n)
    out[:, 0], out[:, 1] = np.divmod(rest, n)
    return out


# -- patterns -------------------------------------------------------------------


def _check_args(topo: Topology, num_packets: int, inject_window: int) -> int:
    if topo.num_nodes < 2:
        raise ValueError("traffic generation needs at least two nodes")
    if num_packets < 0:
        raise ValueError(f"num_packets must be non-negative, got {num_packets}")
    if inject_window < 1:
        raise ValueError(f"inject_window must be at least 1, got {inject_window}")
    return topo.num_nodes


def _other_than(words: np.ndarray, avoid: np.ndarray, n: int) -> np.ndarray:
    """Uniform nodes in ``[0, n)`` other than ``avoid`` (row by row)."""
    out = _below(words, n - 1)
    return out + (out >= avoid)


def uniform_traffic(
    topo: Topology,
    num_packets: int,
    inject_window: int,
    seed: int = 0,
) -> Traffic:
    """Uniform random traffic: ``num_packets`` rows ``(cycle, src, dst)``
    with distinct ``src != dst`` drawn uniformly, injection cycles uniform
    over ``[0, inject_window)``.  Deterministic given ``seed``."""
    n = _check_args(topo, num_packets, inject_window)
    base = _BASE["uniform"]
    idx = np.arange(num_packets, dtype=np.uint64)
    src = _below(draw_words(seed, base + _SRC, idx), n)
    dst = _other_than(draw_words(seed, base + _DST, idx), src, n)
    return _rows(_draw(seed, base + _CYCLE, num_packets, inject_window), src, dst, n)


def permutation_traffic(
    topo: Topology,
    num_packets: int,
    inject_window: int,
    seed: int = 0,
) -> Traffic:
    """Random-permutation traffic: one fixed-point-free permutation per run.

    The permutation is a uniformly random ``n``-cycle (successor map of a
    shuffled node order, the order being the nodes sorted by a random
    key), so every node sends to exactly one partner and no node sends to
    itself -- the classic "permutation routing" workload.
    """
    n = _check_args(topo, num_packets, inject_window)
    base = _BASE["permutation"]
    order = np.argsort(
        draw_words(seed, base + _ORDER, np.arange(n, dtype=np.uint64)),
        kind="stable",
    )
    partner = np.empty(n, dtype=np.int64)
    partner[order] = np.roll(order, -1)
    src = _draw(seed, base + _SRC, num_packets, n)
    cycle = _draw(seed, base + _CYCLE, num_packets, inject_window)
    return _rows(cycle, src, partner[src], n)


def _word_mapped(topo: Topology, src: int, mapper: Callable[[str], str]) -> Optional[int]:
    """Apply ``mapper`` to the word address of ``src``; ``None`` when the
    topology is not word-addressed or the image is not a vertex."""
    if topo.word_length is None:
        return None
    image = mapper(topo.node_word(src))
    g = topo.graph
    if not g.has_label(image):
        return None
    return g.index_of(image)


def _index_bits(n: int) -> int:
    return max(1, (n - 1).bit_length())


def _dst_map(
    topo: Topology,
    word_map: Callable[[str], str],
    index_map: Callable[[int, int], int],
) -> np.ndarray:
    """Destination of every source: the word mapping when it lands on a
    vertex, else the index mapping mod ``n``; a fixed point is sent to
    the next node instead."""
    n = topo.num_nodes
    b = _index_bits(n)
    dst_of = np.empty(n, dtype=np.int64)
    for s in range(n):
        t = _word_mapped(topo, s, word_map)
        if t is None:
            t = index_map(s, b) % n
        dst_of[s] = (s + 1) % n if t == s else t
    return dst_of


def _structured_traffic(
    topo: Topology,
    num_packets: int,
    inject_window: int,
    seed: int,
    name: str,
    build: Callable[[], np.ndarray],
) -> Traffic:
    """Shared engine of the deterministic src->dst patterns: uniform
    sources gather their destination from the pattern's ``dst_of`` map,
    built by ``build`` once per topology."""
    _check_args(topo, num_packets, inject_window)
    dst_of = topo.memo(("dst_of", name), build)
    base = _BASE[name]
    src = _draw(seed, base + _SRC, num_packets, topo.num_nodes)
    cycle = _draw(seed, base + _CYCLE, num_packets, inject_window)
    return _rows(cycle, src, dst_of[src], topo.num_nodes)


def _transpose_word(w: str) -> str:
    half = len(w) // 2
    return w[half:] + w[:half]


def _transpose_index(s: int, b: int) -> int:
    half = b // 2
    hi, lo = s >> half, s & ((1 << half) - 1)
    return (lo << (b - half)) | hi


def _reverse_index(s: int, b: int) -> int:
    out = 0
    for _ in range(b):
        out = (out << 1) | (s & 1)
        s >>= 1
    return out


def transpose_traffic(
    topo: Topology,
    num_packets: int,
    inject_window: int,
    seed: int = 0,
) -> Traffic:
    """Matrix-transpose traffic: destination address swaps the two halves
    of the source address (words when possible, index bits otherwise)."""
    return _structured_traffic(
        topo, num_packets, inject_window, seed, "transpose",
        lambda: _dst_map(topo, _transpose_word, _transpose_index),
    )


def bit_reversal_traffic(
    topo: Topology,
    num_packets: int,
    inject_window: int,
    seed: int = 0,
) -> Traffic:
    """Bit-reversal traffic: destination address is the reversed source
    address -- the FFT communication pattern."""
    return _structured_traffic(
        topo, num_packets, inject_window, seed, "bitrev",
        lambda: _dst_map(topo, lambda w: w[::-1], _reverse_index),
    )


def tornado_traffic(
    topo: Topology,
    num_packets: int,
    inject_window: int,
    seed: int = 0,
) -> Traffic:
    """Tornado traffic: node ``i`` sends to ``(i + n // 2) mod n``, the
    classic half-way-around adversary for minimal routing."""
    n = topo.num_nodes
    stride = max(1, n // 2)
    # a wrapped stride (n == 1, or any (s + stride) % n == s degeneracy)
    # would make every node its own destination, violating the src != dst
    # pattern contract: reject it up front instead of emitting self-traffic
    if n < 2 or stride % n == 0:
        raise ValueError(
            f"tornado traffic is degenerate on {n} node(s): "
            f"stride {stride} wraps every source onto itself"
        )
    # tornado is defined on node positions, not addresses: no word mapping
    return _structured_traffic(
        topo, num_packets, inject_window, seed, "tornado",
        lambda: (np.arange(n, dtype=np.int64) + stride) % n,
    )


def hotspot_traffic(
    topo: Topology,
    num_packets: int,
    inject_window: int,
    seed: int = 0,
    hotspot: int = 0,
    fraction: float = 0.5,
) -> Traffic:
    """Hotspot traffic: each packet targets ``hotspot`` with probability
    ``fraction`` (from any other source), and a uniform random
    destination otherwise."""
    # validate the node count with the argument checks, before any draw:
    # a single-node topology has no source that could target a distinct
    # hotspot
    if topo.num_nodes < 2:
        raise ValueError(
            "hotspot traffic needs at least two nodes "
            "(no source can target a distinct hotspot on "
            f"{topo.num_nodes} node(s))"
        )
    n = _check_args(topo, num_packets, inject_window)
    if not 0 <= hotspot < n:
        raise ValueError(f"hotspot node {hotspot} out of range for {n} nodes")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"hotspot fraction must be in [0, 1], got {fraction}")
    base = _BASE["hotspot"]
    idx = np.arange(num_packets, dtype=np.uint64)
    hot = (draw_words(seed, base + _HOT, idx) >> np.uint64(11)) < _chance(fraction)
    src_words = draw_words(seed, base + _SRC, idx)
    uniform_src = _below(src_words, n)
    src = np.where(hot, _other_than(src_words, hotspot, n), uniform_src)
    dst_words = draw_words(seed, base + _DST, idx)
    dst = np.where(hot, hotspot, _other_than(dst_words, uniform_src, n))
    return _rows(_draw(seed, base + _CYCLE, num_packets, inject_window), src, dst, n)


def _burst_lengths(
    seed: int, bursts: np.ndarray, cap: np.ndarray, mean_burst: int
) -> np.ndarray:
    """Geometric burst lengths (mean ``mean_burst``), each capped at
    ``cap``: burst ``b`` grows while its trial words ``(b, 0), (b, 1),
    ...`` of the length stream stay above the stop threshold."""
    stop = np.uint64((1 << 53) // mean_burst)
    length = np.ones(bursts.size, dtype=np.int64)
    live = np.flatnonzero(cap > 1)
    trial = 0
    while live.size:
        index = (bursts[live] << np.uint64(32)) | np.uint64(trial)
        words = draw_words(seed, _BASE["bursty"] + _LENGTH, index)
        live = live[(words >> np.uint64(11)) >= stop]
        length[live] += 1
        live = live[length[live] < cap[live]]
        trial += 1
    return length


def bursty_traffic(
    topo: Topology,
    num_packets: int,
    inject_window: int,
    seed: int = 0,
    mean_burst: int = 8,
) -> Traffic:
    """Bursty on/off sources: packets arrive in geometric bursts of mean
    length ``mean_burst``, one packet per cycle, all of a burst sharing one
    ``(src, dst)`` pair -- the self-similar-ish load that stresses FIFO
    depth far more than the same volume spread uniformly."""
    n = _check_args(topo, num_packets, inject_window)
    if mean_burst < 1:
        raise ValueError(f"mean_burst must be at least 1, got {mean_burst}")
    if num_packets == 0:
        return np.empty((0, 3), dtype=np.int64)
    # bursts are numbered, so drawing them in chunks until enough packets
    # exist yields the same stream whatever the chunk size
    base = _BASE["bursty"]
    chunk = 2 * (num_packets // mean_burst) + 16
    parts = []
    total = first = 0
    while total < num_packets:
        b = np.arange(first, first + chunk, dtype=np.uint64)
        src = _below(draw_words(seed, base + _SRC, b), n)
        dst = _other_than(draw_words(seed, base + _DST, b), src, n)
        start = _below(draw_words(seed, base + _CYCLE, b), inject_window)
        # cap each burst at the window edge: every pattern honours the
        # documented [0, inject_window) contract, so the sweep harness's
        # load * nodes * window normalisation stays exact
        length = _burst_lengths(seed, b, inject_window - start, mean_burst)
        parts.append((src, dst, start, length))
        total += int(length.sum())
        first += chunk
    src, dst, start, length = (np.concatenate(col) for col in zip(*parts))
    # keep the bursts that reach num_packets, truncating the last one
    ends = np.cumsum(length)
    used = int(np.searchsorted(ends, num_packets)) + 1
    length = length[:used]
    length[-1] -= int(ends[used - 1]) - num_packets
    offset = np.arange(num_packets, dtype=np.int64) - np.repeat(
        np.cumsum(length) - length, length
    )
    return _rows(
        np.repeat(start[:used], length) + offset,
        np.repeat(src[:used], length),
        np.repeat(dst[:used], length),
        n,
    )


def flit_sizes(
    num_packets: int,
    flits: "str | int" = "1",
    seed: int = 0,
) -> np.ndarray:
    """Per-packet flit counts for the flow-controlled switching modes.

    ``flits`` is a compact spec: an int (or digit string) gives every
    packet that many flits; ``"lo-hi"`` draws each packet's size
    uniformly from ``[lo, hi]``, deterministic given ``seed``.  The
    returned ``(num_packets,)`` int64 array aligns with a traffic array
    of ``num_packets`` rows (generate it *after* any fault filtering so
    the two stay aligned).
    """
    if num_packets < 0:
        raise ValueError(f"num_packets must be non-negative, got {num_packets}")
    if isinstance(flits, int):
        lo = hi = flits
    else:
        text = str(flits).strip()
        lo_s, sep, hi_s = text.partition("-")
        try:
            lo = int(lo_s)
            hi = int(hi_s) if sep else lo
        except ValueError:
            raise ValueError(
                f"bad flits spec {flits!r}: expected '<n>' or '<lo>-<hi>'"
            ) from None
    if lo < 1 or hi < lo:
        raise ValueError(
            f"bad flits spec {flits!r}: need 1 <= lo <= hi, got [{lo}, {hi}]"
        )
    if lo == hi:
        return np.full(num_packets, lo, dtype=np.int64)
    return lo + _draw(seed, _BASE["flits"], num_packets, hi - lo + 1)


def collective_traffic(
    name: str,
    topo: Topology,
    num_packets: int,
    inject_window: int,
    seed: int = 0,
) -> Traffic:
    """Open-loop traffic from a collective's round schedule.

    Repetition ``r`` compiles the collective from a seeded random root
    and maps its rounds onto injection waves inside the window: each
    round gets a seeded wave cycle drawn from ``[0, inject_window)``,
    the waves sorted so round order is preserved (later rounds never
    inject before earlier ones).  Repetitions (fresh roots) accumulate
    until ``num_packets`` rows exist; the last one is truncated.
    This is the *offered-load* view for pattern sweeps -- it respects
    round ordering but not delivery barriers; for true per-round
    barriers use :func:`repro.network.collectives.run_collective`.
    """
    # imported lazily: collectives builds on this module's flit_sizes
    from repro.network.collectives import collective_schedule

    n = _check_args(topo, num_packets, inject_window)
    base = _BASE.get(name, 0)  # an unknown name fails in collective_schedule
    parts = []
    total = rep = 0
    while total < num_packets:
        root = int(_below(draw_words(seed, base + _ROOT, [rep]), n)[0])
        rounds = collective_schedule(name, topo, root=root)
        index = (np.uint64(rep) << np.uint64(32)) + np.arange(
            len(rounds), dtype=np.uint64
        )
        waves = np.sort(
            _below(draw_words(seed, base + _WAVE, index), inject_window)
        )
        pairs = np.asarray(
            [pair for rnd in rounds for pair in rnd], dtype=np.int64
        ).reshape(-1, 2)
        cycles = np.repeat(waves, [len(rnd) for rnd in rounds])
        take = min(num_packets - total, cycles.size)
        parts.append(np.column_stack((cycles, pairs))[:take])
        total += take
        rep += 1
    out = np.concatenate(parts) if parts else np.empty((0, 3), dtype=np.int64)
    return _rows(out[:, 0], out[:, 1], out[:, 2], n)


def _collective_pattern(name: str) -> Callable[..., Traffic]:
    def pattern(
        topo: Topology, num_packets: int, inject_window: int, seed: int = 0
    ) -> Traffic:
        return collective_traffic(name, topo, num_packets, inject_window, seed=seed)

    pattern.__name__ = f"{name}_traffic"
    pattern.__doc__ = f"Open-loop {name!r} collective traffic (see collective_traffic)."
    return pattern


PATTERNS: Dict[str, Callable[..., Traffic]] = {
    "uniform": uniform_traffic,
    "permutation": permutation_traffic,
    "transpose": transpose_traffic,
    "bitrev": bit_reversal_traffic,
    "tornado": tornado_traffic,
    "hotspot": hotspot_traffic,
    "bursty": bursty_traffic,
    "broadcast": _collective_pattern("broadcast"),
    "reduce": _collective_pattern("reduce"),
    "allgather": _collective_pattern("allgather"),
    "alltoall": _collective_pattern("alltoall"),
    "ring": _collective_pattern("ring"),
}


def make_traffic(
    pattern: str,
    topo: Topology,
    num_packets: int,
    inject_window: int,
    seed: int = 0,
    faults: Optional[FaultPlan] = None,
    **kwargs,
) -> Traffic:
    """Generate traffic by registry name (see :data:`PATTERNS`).

    ``faults`` silences dead sources: rows whose source node has failed
    at or before their injection cycle are removed, so offered load
    comes from surviving nodes only.
    """
    try:
        fn = PATTERNS[pattern]
    except KeyError:
        raise ValueError(
            f"unknown traffic pattern {pattern!r}; "
            f"choose from {sorted(PATTERNS)}"
        ) from None
    out = fn(topo, num_packets, inject_window, seed=seed, **kwargs)
    if faults is not None and faults.node_faults:
        death = faults.node_death_array(topo.num_nodes)
        out = out[death[out[:, 1]] > out[:, 0]]
    return out
