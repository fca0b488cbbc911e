"""Differential fuzzing: both engines, random configurations, bit equality.

The equivalence suite pins a fixed grid of scenarios; this harness
generalises it: seeded random sampling over the whole configuration
space -- topology x router x traffic pattern (collectives included) x
switching mode x VC/buffer/flit shape x fault plan x cycle cap -- and
asserts the reference and vectorized engines produce bit-identical
``SimResult``s on every sampled case.  A backend pass replays the same
sampled space through the NumPy and native kernel backends (skipped
where no C toolchain exists).  A companion pass fuzzes the
closed-loop collective compiler the same way (and replays its compiled
traffic in one run), a lock-step pass packs sampled collective sweep
points by (topology, cycle cap) and checks each pack against the
points run alone, a workload pass samples
random multi-tenant overlays (tenant mixes, priorities, QoS rate caps)
and requires every engine and backend to agree on the per-tenant stats
too, and a batch pass stacks a
random K of mixed replications (seeds, loads, patterns, routers, fault
plans, switching modes -- sf, wormhole and vct all batch natively
through the fused kernel) into one ``BatchedSimulator`` run and checks
it against K sequential vectorized runs.  A deadlock pass, with its own
sampler, loads deadlock-prone cubes hard enough that runs really
deadlock, and checks reference, NumPy and native on them.

Scaling and reproduction
------------------------
``REPRO_FUZZ_CASES`` (default 30, CI-friendly) scales the sample count;
the nightly CI job runs 500.  ``REPRO_FUZZ_SEED`` moves the seed base.
Every failure is reported (and appended to ``REPRO_FUZZ_LOG`` when set)
as a one-line repro of the form ``seed=<s> topology=... router=...``;
re-running just that case is::

    REPRO_FUZZ_SEED=<s> REPRO_FUZZ_CASES=1 \
        pytest tests/network/test_differential_fuzz.py -q
"""

import os
import random

import pytest

from repro.network.backends import native as _native
from repro.network.batch import BatchedSimulator, BatchItem
from repro.network.collectives import COLLECTIVES, run_collective
from repro.network.faults import FaultPlan
from repro.network.flowcontrol import FlowControl
from repro.network.simulator import ReferenceSimulator, VectorizedSimulator
from repro.network.sweep import (
    ROUTERS,
    PointSpec,
    normalize_spec,
    parse_topology,
    run_batch_points,
    run_point,
)
from repro.network.traffic import PATTERNS, flit_sizes, make_traffic
from repro.network.workloads import compile_workload

CASES = int(os.environ.get("REPRO_FUZZ_CASES", "30"))
BASE_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "20260730"))
LOG_PATH = os.environ.get("REPRO_FUZZ_LOG", "")

# word-addressed topologies (every router works), <= 32 nodes so the
# reference engine stays fast enough for hundreds of cases
TOPO_SPECS = ("Q:3", "Q:4", "11:5", "11:6", "101:4", "101:5", "1010:5")

FLIT_SPECS = ("1", "2", "4", "1-4", "2-6")


def _sample_faults(rng: random.Random, topo) -> str:
    """A random valid fault-plan spec ('' half the time)."""
    if rng.random() < 0.5:
        return ""
    tokens = []
    for _ in range(rng.randint(1, 2)):
        tokens.append(f"n{rng.randrange(topo.num_nodes)}@{rng.randrange(30)}")
    if rng.random() < 0.5:
        edges = list(topo.graph.edges())
        u, v = edges[rng.randrange(len(edges))]
        tokens.append(f"l{u}-{v}@{rng.randrange(30)}")
    return ",".join(tokens)


def sample_case(seed: int) -> dict:
    """The deterministic case a seed denotes (the repro contract)."""
    rng = random.Random(seed)
    topology = rng.choice(TOPO_SPECS)
    topo = parse_topology(topology)
    switching = rng.choice(("sf", "wormhole", "vct"))
    if switching == "sf":
        num_vcs, buffer_depth, flits = 1, 0, "1"
    else:
        num_vcs = rng.randint(1, 3)
        flits = rng.choice(FLIT_SPECS)
        buffer_depth = rng.randint(1, 8)
        if switching == "vct":  # vct buffers must fit the largest packet
            _, _, hi = flits.rpartition("-")
            buffer_depth = max(buffer_depth, int(hi))
    return {
        "topology": topology,
        "router": rng.choice(sorted(ROUTERS)),
        "pattern": rng.choice(sorted(PATTERNS)),
        "switching": switching,
        "num_vcs": num_vcs,
        "buffer_depth": buffer_depth,
        "flits": flits,
        "packets": rng.randint(1, 120),
        "window": rng.randint(1, 40),
        "max_cycles": rng.choice((100000, 100000, 100000, 37)),
        "faults": _sample_faults(rng, topo),
        "traffic_seed": rng.randrange(10**6),
        "flit_seed": rng.randrange(10**6),
        "collective": rng.choice(sorted(COLLECTIVES)),
        "root": rng.randrange(topo.num_nodes),
    }


def _describe(seed: int, cfg: dict, mode: str) -> str:
    parts = " ".join(f"{k}={cfg[k]!r}" for k in sorted(cfg))
    return f"seed={seed} mode={mode} {parts}"


def run_engine_case(seed: int) -> "str | None":
    """One differential case; the repro line on divergence, else None."""
    cfg = sample_case(seed)
    topo = parse_topology(cfg["topology"])
    router = ROUTERS[cfg["router"]]()
    plan = (
        FaultPlan.parse(cfg["faults"], num_nodes=topo.num_nodes)
        if cfg["faults"] else None
    )
    traffic = make_traffic(
        cfg["pattern"], topo, cfg["packets"], cfg["window"],
        seed=cfg["traffic_seed"], faults=plan,
    )
    if cfg["switching"] == "sf":
        flow, sizes = "sf", 1
    else:
        flow = FlowControl(
            switching=cfg["switching"],
            buffer_depth=cfg["buffer_depth"],
            num_vcs=cfg["num_vcs"],
        )
        sizes = flit_sizes(len(traffic), cfg["flits"], seed=cfg["flit_seed"])
    kwargs = dict(
        max_cycles=cfg["max_cycles"], faults=plan, switching=flow, flits=sizes
    )
    ref = ReferenceSimulator(topo, router).run(traffic, **kwargs)
    vec = VectorizedSimulator(topo, router).run(traffic, **kwargs)
    if ref != vec:
        return _describe(seed, cfg, "engine")
    return None


def run_native_case(seed: int) -> "str | None":
    """One case through the NumPy and native kernels, bit equality.

    The engine pass above already pins vectorized == reference; this
    pass pins backend == backend on the same sampled space, so a native
    divergence is reported against the cheap oracle it actually
    diverged from."""
    cfg = sample_case(seed)
    topo = parse_topology(cfg["topology"])
    router = ROUTERS[cfg["router"]]()
    plan = (
        FaultPlan.parse(cfg["faults"], num_nodes=topo.num_nodes)
        if cfg["faults"] else None
    )
    traffic = make_traffic(
        cfg["pattern"], topo, cfg["packets"], cfg["window"],
        seed=cfg["traffic_seed"], faults=plan,
    )
    if cfg["switching"] == "sf":
        flow, sizes = "sf", 1
    else:
        flow = FlowControl(
            switching=cfg["switching"],
            buffer_depth=cfg["buffer_depth"],
            num_vcs=cfg["num_vcs"],
        )
        sizes = flit_sizes(len(traffic), cfg["flits"], seed=cfg["flit_seed"])
    kwargs = dict(
        max_cycles=cfg["max_cycles"], faults=plan, switching=flow, flits=sizes
    )
    ref = VectorizedSimulator(topo, router, backend="numpy").run(
        traffic, **kwargs
    )
    nat = VectorizedSimulator(topo, router, backend="native").run(
        traffic, **kwargs
    )
    if ref != nat:
        return _describe(seed, cfg, "native")
    return None


def run_collective_case(seed: int) -> "str | None":
    """One closed-loop collective case through both engines, then the
    compiled traffic replayed in one vectorized run: the rounds are
    simulated apart, and their summed result must equal the replay."""
    cfg = sample_case(seed)
    topo = parse_topology(cfg["topology"])
    router = ROUTERS[cfg["router"]]()
    plan = (
        FaultPlan.parse(cfg["faults"], num_nodes=topo.num_nodes)
        if cfg["faults"] else None
    )
    flow = "sf" if cfg["switching"] == "sf" else FlowControl(
        switching=cfg["switching"],
        buffer_depth=cfg["buffer_depth"],
        num_vcs=cfg["num_vcs"],
    )
    kwargs = dict(
        root=cfg["root"], router=router, switching=flow,
        flits=1 if cfg["switching"] == "sf" else cfg["flits"],
        flit_seed=cfg["flit_seed"], faults=plan, max_cycles=cfg["max_cycles"],
    )
    ref = run_collective(topo, cfg["collective"], engine="reference", **kwargs)
    vec = run_collective(topo, cfg["collective"], engine="vectorized", **kwargs)
    if ref != vec:
        return _describe(seed, cfg, "collective")
    replay = VectorizedSimulator(topo, router).run(
        vec.traffic, max_cycles=cfg["max_cycles"], faults=plan, switching=flow,
        flits=flit_sizes(len(vec.traffic), kwargs["flits"], seed=cfg["flit_seed"]),
    )
    if replay != vec.result:
        return _describe(seed, cfg, "collective-replay")
    return None


def collective_point(seed: int) -> PointSpec:
    """The sweep point of a sampled case, as its collective: the point's
    seed picks the root and the flit sizes."""
    cfg = sample_case(seed)
    return normalize_spec(PointSpec(
        topology=cfg["topology"], router=cfg["router"], seed=cfg["root"],
        max_cycles=cfg["max_cycles"], faults=cfg["faults"],
        switching=cfg["switching"], num_vcs=cfg["num_vcs"],
        buffer_depth=cfg["buffer_depth"], flits=cfg["flits"],
        collective=cfg["collective"],
    ))


def sample_workload(rng: random.Random) -> str:
    """A random multi-tenant workload spec: 2-4 tenants with mixed
    patterns, loads and priorities, rate drawn from {0, 1, 2}."""
    tenants = []
    for i in range(rng.randint(2, 4)):
        pattern = rng.choice(sorted(PATTERNS))
        load = round(rng.uniform(0.05, 0.6), 2)
        prio = rng.randint(0, 3)
        tenants.append(f"t{i}:{pattern}:{load}:{prio}")
    spec = ";".join(tenants)
    rate = rng.choice((0, 1, 2))
    return f"{spec};rate={rate}" if rate != 1 else spec


def run_workload_case(seed: int) -> "str | None":
    """One multi-tenant overlay case through both engines (and, where a
    toolchain exists, both kernel backends): bit-identical SimResults
    with per-tenant stats required."""
    cfg = sample_case(seed)
    rng = random.Random(seed ^ 0x5EED)
    workload = sample_workload(rng)
    topo = parse_topology(cfg["topology"])
    router = ROUTERS[cfg["router"]]()
    plan = (
        FaultPlan.parse(cfg["faults"], num_nodes=topo.num_nodes)
        if cfg["faults"] else None
    )
    compiled = compile_workload(
        workload, topo, cfg["window"], seed=cfg["traffic_seed"], faults=plan
    )
    if cfg["switching"] == "sf":
        flow, sizes = "sf", 1
    else:
        flow = FlowControl(
            switching=cfg["switching"],
            buffer_depth=cfg["buffer_depth"],
            num_vcs=cfg["num_vcs"],
        )
        sizes = flit_sizes(
            len(compiled.traffic), cfg["flits"], seed=cfg["flit_seed"]
        )
    kwargs = dict(
        max_cycles=cfg["max_cycles"], faults=plan, switching=flow,
        flits=sizes, tenants=compiled.tenants,
    )
    results = [
        ReferenceSimulator(topo, router).run(compiled.traffic, **kwargs),
        VectorizedSimulator(topo, router).run(compiled.traffic, **kwargs),
    ]
    if _native.load_library()[0] is not None:
        results.append(
            VectorizedSimulator(topo, router, backend="native").run(
                compiled.traffic, **kwargs
            )
        )
    if any(r != results[0] for r in results[1:]):
        flat = dict(cfg, workload=workload)
        return _describe(seed, flat, "workload")
    return None


def sample_batch_case(seed: int) -> dict:
    """A deterministic batch of K mixed replications on one topology.

    Some replications then take an earlier one's fault plan (and, half
    of those, its router too), so equal plans on one router instance
    share their epoch route tables inside the batch.  Those draws come
    from a stream of their own: every other draw of a seed is the one it
    was before plans were shared."""
    rng = random.Random(seed)
    share = random.Random(seed ^ 0x5A4ED)
    topology = rng.choice(TOPO_SPECS)
    topo = parse_topology(topology)
    reps = []
    for _ in range(rng.randint(2, 6)):
        # equal thirds: every switching mode batches natively, so the
        # batch pass stresses the fused kernel's flow-control engine as
        # hard as its store-and-forward one
        switching = rng.choice(("sf", "wormhole", "vct"))
        if switching == "sf":
            num_vcs, buffer_depth, flits = 1, 0, "1"
        else:
            num_vcs = rng.randint(1, 3)
            flits = rng.choice(FLIT_SPECS)
            buffer_depth = rng.randint(1, 8)
            if switching == "vct":
                _, _, hi = flits.rpartition("-")
                buffer_depth = max(buffer_depth, int(hi))
        reps.append({
            "router": rng.choice(sorted(ROUTERS)),
            "pattern": rng.choice(sorted(PATTERNS)),
            "switching": switching,
            "num_vcs": num_vcs,
            "buffer_depth": buffer_depth,
            "flits": flits,
            "packets": rng.randint(0, 120),
            "window": rng.randint(1, 40),
            "faults": _sample_faults(rng, topo),
            "traffic_seed": rng.randrange(10**6),
            "flit_seed": rng.randrange(10**6),
        })
    for i, rep in enumerate(reps):
        faulted = [earlier for earlier in reps[:i] if earlier["faults"]]
        if faulted and share.random() < 0.5:
            earlier = share.choice(faulted)
            rep["faults"] = earlier["faults"]
            if share.random() < 0.5:
                rep["router"] = earlier["router"]
    return {
        "topology": topology,
        "max_cycles": rng.choice((100000, 100000, 100000, 41)),
        "reps": reps,
    }


def _batch_items(topo, reps: list) -> list:
    """The ``BatchItem`` of every sampled replication."""
    routers: dict = {}
    items = []
    for rep in reps:
        # shared router instances and (see sample_batch_case) shared
        # fault plans, so the batch also exercises its route-table
        # sharing per (router, plan, epoch)
        router = routers.setdefault(rep["router"], ROUTERS[rep["router"]]())
        plan = (
            FaultPlan.parse(rep["faults"], num_nodes=topo.num_nodes)
            if rep["faults"] else None
        )
        traffic = make_traffic(
            rep["pattern"], topo, rep["packets"], rep["window"],
            seed=rep["traffic_seed"], faults=plan,
        )
        if rep["switching"] == "sf":
            flow: "str | FlowControl" = "sf"
            sizes: "int | list" = 1
        else:
            flow = FlowControl(
                switching=rep["switching"],
                buffer_depth=rep["buffer_depth"],
                num_vcs=rep["num_vcs"],
            )
            sizes = flit_sizes(len(traffic), rep["flits"], seed=rep["flit_seed"])
        items.append(BatchItem(
            traffic=traffic, router=router, faults=plan,
            switching=flow, flits=sizes,
        ))
    return items


def run_batch_fuzz_case(seed: int) -> "str | None":
    """One K-replication batch vs K sequential vectorized runs."""
    cfg = sample_batch_case(seed)
    topo = parse_topology(cfg["topology"])
    items = _batch_items(topo, cfg["reps"])
    batched = BatchedSimulator(topo).run_batch(
        items, max_cycles=cfg["max_cycles"]
    )
    sequential = [
        VectorizedSimulator(topo, it.router).run(
            it.traffic, max_cycles=cfg["max_cycles"], faults=it.faults,
            switching=it.switching, flits=it.flits,
        )
        for it in items
    ]
    if batched != sequential:
        flat = {
            "topology": cfg["topology"],
            "max_cycles": cfg["max_cycles"],
            "k": len(items),
            "diverged_at": [
                i for i, (b, s) in enumerate(zip(batched, sequential)) if b != s
            ],
        }
        return _describe(seed, flat, "batch")
    return None


# cubes and patterns on which BFS / greedy shortest paths close
# channel-dependency cycles, so heavy single-VC wormhole bursts really
# deadlock (the samplers above never load a network that hard)
DEADLOCK_TOPOS = ("1010:5", "0101:5", "1010:6", "0110:6")
DEADLOCK_PATTERNS = ("uniform", "alltoall", "bursty", "hotspot")


def sample_deadlock_case(seed: int) -> dict:
    """A deterministic deadlock-prone batch: 2-4 replications, a quarter
    of them store-and-forward, the rest wormhole with 1-2 VCs, depth 1-2
    buffers, 2-6 flits and 50-600 packets over a short window, some with
    link faults."""
    rng = random.Random(seed)
    topology = rng.choice(DEADLOCK_TOPOS)
    edges = list(parse_topology(topology).graph.edges())
    reps = []
    for _ in range(rng.randint(2, 4)):
        switching = "sf" if rng.random() < 0.25 else "wormhole"
        faults = ""
        if rng.random() < 0.3:
            faults = ",".join(
                "l{}-{}@{}".format(*edges[rng.randrange(len(edges))],
                                   rng.randrange(60))
                for _ in range(rng.randint(1, 2))
            )
        reps.append({
            "router": rng.choice(("bfs", "greedy")),
            "pattern": rng.choice(DEADLOCK_PATTERNS),
            "switching": switching,
            "num_vcs": rng.randint(1, 2),
            "buffer_depth": rng.randint(1, 2),
            "flits": "1" if switching == "sf" else rng.choice(
                ("2", "4", "6", "2-6")
            ),
            "packets": rng.randint(50, 600),
            "window": rng.randint(1, 20),
            "faults": faults,
            "traffic_seed": rng.randrange(10**6),
            "flit_seed": rng.randrange(10**6),
        })
    return {"topology": topology, "reps": reps}


def run_deadlock_case(seed: int) -> "tuple[str | None, int]":
    """One deadlock-prone batch: every item alone through the reference
    engine, then the whole batch through the NumPy kernel and -- where a
    toolchain exists -- the native one.  Returns the repro line on
    divergence (else None) and how many runs deadlocked."""
    cfg = sample_deadlock_case(seed)
    topo = parse_topology(cfg["topology"])
    items = _batch_items(topo, cfg["reps"])
    results = [ReferenceSimulator(topo).run_batch(items)]
    backends = ["numpy"]
    if _native.load_library()[0] is not None:
        backends.append("native")
    for backend in backends:
        results.append(
            BatchedSimulator(topo, backend=backend).run_batch(items)
        )
    deadlocked = sum(r.deadlocked for r in results[0])
    if any(r != results[0] for r in results[1:]):
        flat = {"topology": cfg["topology"], "k": len(items)}
        return _describe(seed, flat, "deadlock"), deadlocked
    return None, deadlocked


def _report(failures):
    if not failures:
        return
    if LOG_PATH:
        with open(LOG_PATH, "a") as fh:
            for line in failures:
                fh.write(line + "\n")
    pytest.fail(
        f"{len(failures)} differential-fuzz case(s) diverged:\n"
        + "\n".join(failures)
    )


def test_sampler_is_deterministic():
    """The seed IS the repro: the same seed must denote the same case."""
    assert sample_case(BASE_SEED) == sample_case(BASE_SEED)
    assert sample_case(BASE_SEED) != sample_case(BASE_SEED + 1)


@pytest.mark.heavy
def test_differential_fuzz_engines():
    """CASES random configurations, bit-identical SimResults required."""
    _report(
        [
            line
            for line in (
                run_engine_case(BASE_SEED + i) for i in range(CASES)
            )
            if line
        ]
    )


@pytest.mark.heavy
@pytest.mark.skipif(
    _native.load_library()[0] is None,
    reason="no usable C toolchain for the native backend",
)
def test_differential_fuzz_native_backend():
    """The same sampled space through both kernel backends: the C sf
    loop must be bit-identical to the NumPy engines on every case."""
    _report(
        [
            line
            for line in (
                run_native_case(BASE_SEED + i) for i in range(CASES)
            )
            if line
        ]
    )


@pytest.mark.heavy
def test_differential_fuzz_collectives():
    """A smaller closed-loop pass: the collective compiler's barriers and
    results must match across engines on random configurations."""
    cases = max(1, CASES // 5)
    _report(
        [
            line
            for line in (
                run_collective_case(BASE_SEED + i) for i in range(cases)
            )
            if line
        ]
    )


@pytest.mark.heavy
def test_differential_fuzz_collective_batches():
    """The lock-step pass: CASES sampled collective points, grouped by
    (topology, cycle cap) as a sweep pack groups them, each group in one
    ``run_batch_points`` call -- round r of every collective one kernel
    batch -- must give the records of every point run alone."""
    groups: dict = {}
    for i in range(CASES):
        spec = collective_point(BASE_SEED + i)
        groups.setdefault((spec.topology, spec.max_cycles), []).append(
            (BASE_SEED + i, spec)
        )
    failures = []
    for (topology, cap), members in sorted(groups.items()):
        specs = [spec for _, spec in members]
        batched = run_batch_points(specs)
        for (seed, spec), got in zip(members, batched):
            if got != run_point(spec):
                flat = {"topology": topology, "max_cycles": cap, "k": len(specs)}
                failures.append(_describe(seed, flat, "collective-batch"))
    _report(failures)


@pytest.mark.heavy
def test_differential_fuzz_workloads():
    """The multi-tenant pass: random overlay workloads (tenant mixes,
    priorities, rate caps) through reference, NumPy and -- when
    available -- native, per-tenant stats included, bit for bit."""
    cases = max(1, CASES // 3)
    _report(
        [
            line
            for line in (
                run_workload_case(BASE_SEED + i) for i in range(cases)
            )
            if line
        ]
    )


@pytest.mark.heavy
def test_differential_fuzz_batches():
    """The batch pass: random-K mixed batches (seeds, loads, patterns,
    routers, fault plans, switching modes) through ``BatchedSimulator``
    must match K sequential vectorized runs bit for bit."""
    cases = max(1, CASES // 3)
    _report(
        [
            line
            for line in (
                run_batch_fuzz_case(BASE_SEED + i) for i in range(cases)
            )
            if line
        ]
    )


@pytest.mark.heavy
def test_differential_fuzz_deadlocks():
    """The deadlock pass: deadlock-prone batches (BFS or greedy routes
    on cubes whose shortest paths form channel-dependency cycles, tiny
    buffers, long packets, link faults, sf items co-batched) through the
    reference engine, NumPy and native, bit for bit.  Deadlock freezing
    and buffer recycling only run when something deadlocks, so the pass
    fails if fewer than one run in four cases did (about one run per
    two cases deadlocks over the default seed range)."""
    cases = max(1, CASES // 3)
    failures, deadlocked = [], 0
    for i in range(cases):
        line, dl = run_deadlock_case(BASE_SEED + i)
        deadlocked += dl
        if line:
            failures.append(line)
    _report(failures)
    assert deadlocked >= cases // 4, (
        f"only {deadlocked} deadlocked runs in {cases} deadlock-prone cases"
    )
