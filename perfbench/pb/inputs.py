"""Seeded input generation for every workload.

One process generates every input from the workload seed; the program
under test only ever sees the written files.  The same seed gives
byte-identical files (the benchmark's own tests pin this, and every run
re-generates its inputs to check it).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Tuple

from repro.io import dumps, dumps_event_log, events_from_recorded
from repro.workloads.generator import WorkloadConfig, generate
from repro.workloads.topologies import (
    TopologySpec,
    fork_topology,
    join_topology,
    random_dag_topology,
    stack_topology,
    tree_topology,
)

HERE = Path(__file__).resolve().parent.parent
EXPECTED_VERDICTS = HERE / "expected_verdicts.json"

#: check-stack: (depth, roots) sweep points, each in both layouts
STACK_SWEEP = ((4, 4), (4, 6), (4, 8), (4, 11), (5, 3), (5, 4), (5, 6))
STACK_LAYOUTS = ("serial", "perturbed")

#: watch-stack: (depth, roots) of the replayed, accepted streams
WATCH_SWEEP = ((2, 12), (2, 18), (2, 24), (3, 6), (3, 9), (3, 12))
#: the snapshot is written after this share of a stream's events
SNAPSHOT_AT = 0.95

#: check-ensemble: shape name -> systems per layout
ENSEMBLE_SHAPES = (
    "stack2", "stack3", "fork2", "fork3", "join2", "join3", "tree3x2",
    "dag3x2",
)
ENSEMBLE_LAYOUTS = (("random", 15), ("perturbed", 6), ("serial", 6))
ENSEMBLE_ROOTS = (2, 3, 4, 5, 6)
ENSEMBLE_CONFLICTS = 0.1
#: random-layout systems come from a fixed pool per shape, whose
#: reviewed verdicts are recorded in expected_verdicts.json
POOL_SIZE = 60

#: chaos-grid: the protocols and per-protocol seed count of one grid
CHAOS_PROTOCOLS = ("cc", "s2pl", "sgt", "to")
CHAOS_SEEDS = 4
#: chaos-grid: seed grids a run cycles through, one per pass, so that
#: its figures average over this many times CHAOS_SEEDS seeds
CHAOS_GRIDS = 6
#: transactions per client at each grid size (3 clients)
CHAOS_SWEEP = (2, 4, 6)


@dataclass(frozen=True)
class Item:
    """One generated input file and what the benchmark knows about it."""

    path: str
    shape: str
    layout: str
    roots: int
    depth: int = 0
    #: the verdict the input must get: serial and perturbed layouts are
    #: Comp-C by construction, random-layout pool entries carry their
    #: reviewed verdict
    expect: bool = True
    #: the event log of a watch-stack stream
    log: str = ""
    events: int = 0
    order_events: int = 0


def topology(shape: str, seed: int) -> TopologySpec:
    kind, size = shape[:-1], int(shape[-1])
    if shape.startswith("tree"):
        depth, fanout = (int(x) for x in shape[4:].split("x"))
        return tree_topology(depth, fanout)
    if shape.startswith("dag"):
        layers, width = (int(x) for x in shape[3:].split("x"))
        return random_dag_topology(layers, width, seed=seed)
    if kind == "stack":
        return stack_topology(size)
    if kind == "fork":
        return fork_topology(size)
    if kind == "join":
        return join_topology(size)
    raise ValueError(f"unknown shape {shape!r}")


def generate_text(
    shape: str, layout: str, roots: int, gen_seed: int, fanout: bool = False
) -> str:
    """The saved-execution JSON text of one generated system.

    ``fanout`` marks a sweep input: every transaction gets exactly two
    operations, so a sweep point's size does not depend on the seed.
    Ensemble systems draw one to three operations per transaction and
    fewer conflicts, so that about 70% of them are Comp-C."""
    config = WorkloadConfig(
        seed=gen_seed,
        roots=roots,
        layout=layout,
        ops_per_transaction=(2, 2) if fanout else (1, 3),
        conflict_probability=0.3 if fanout else ENSEMBLE_CONFLICTS,
    )
    return dumps(generate(topology(shape, gen_seed), config))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def pool_entry(shape: str, index: int) -> Tuple[str, int, int]:
    """``(key, roots, generator seed)`` of one fixed pool entry."""
    return f"{shape}-random-{index:02d}", ENSEMBLE_ROOTS[index % 5], index


def pool_sample(rng: random.Random, count: int) -> List[int]:
    """``count`` pool indices, spread evenly over the root counts."""
    classes = len(ENSEMBLE_ROOTS)
    per, extra = divmod(count, classes)
    chosen = []
    for c in range(classes):
        members = range(c, POOL_SIZE, classes)
        chosen.extend(rng.sample(members, per + (c < extra)))
    return sorted(chosen)


def load_expected() -> Dict[str, Dict[str, object]]:
    return json.loads(EXPECTED_VERDICTS.read_text())["verdicts"]


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _sub_seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def check_stack(seed: int, out: Path) -> List[Item]:
    rng = random.Random(f"check-stack:{seed}")
    items = []
    for depth, roots in STACK_SWEEP:
        for layout in STACK_LAYOUTS:
            path = out / f"d{depth}-r{roots:02d}-{layout}.json"
            text = generate_text(
                f"stack{depth}", layout, roots, _sub_seed(rng), fanout=True
            )
            _write(path, text)
            items.append(
                Item(str(path), f"stack{depth}", layout, roots, depth, True)
            )
    return items


def check_ensemble(seed: int, out: Path) -> List[Item]:
    """Serial and perturbed systems are fresh from the seed; random-layout
    ones are a seeded sample of each shape's reviewed pool."""
    rng = random.Random(f"check-ensemble:{seed}")
    expected = load_expected()
    items = []
    for shape in ENSEMBLE_SHAPES:
        for layout, count in ENSEMBLE_LAYOUTS:
            if layout == "random":
                for index in pool_sample(rng, count):
                    key, roots, gen_seed = pool_entry(shape, index)
                    text = generate_text(shape, layout, roots, gen_seed)
                    record = expected[key]
                    if digest(text) != record["sha256"]:
                        raise RuntimeError(
                            f"pool entry {key} no longer generates the "
                            "reviewed input; regenerate and re-review "
                            "expected_verdicts.json"
                        )
                    path = out / f"{key}.json"
                    _write(path, text)
                    items.append(
                        Item(
                            str(path), shape, layout, roots,
                            expect=bool(record["comp_c"]),
                        )
                    )
                continue
            for i in range(count):
                roots = ENSEMBLE_ROOTS[i % len(ENSEMBLE_ROOTS)]
                path = out / f"{shape}-{layout}-{i:02d}.json"
                text = generate_text(shape, layout, roots, _sub_seed(rng))
                _write(path, text)
                items.append(Item(str(path), shape, layout, roots, expect=True))
    return items


def watch_stack(seed: int, out: Path) -> List[Item]:
    from repro.io import loads

    rng = random.Random(f"watch-stack:{seed}")
    items = []
    for depth, roots in WATCH_SWEEP:
        layout = rng.choice(STACK_LAYOUTS)
        stem = out / f"d{depth}-r{roots:02d}-{layout}"
        text = generate_text(
            f"stack{depth}", layout, roots, _sub_seed(rng), fanout=True
        )
        events = events_from_recorded(loads(text))
        _write(Path(f"{stem}.json"), text)
        _write(Path(f"{stem}.jsonl"), dumps_event_log(events))
        items.append(
            Item(
                f"{stem}.json", f"stack{depth}", layout, roots, depth, True,
                log=f"{stem}.jsonl",
                events=len(events),
                order_events=sum(e.kind == "order" for e in events),
            )
        )
    return items


def chaos_grid(seed: int, out: Path) -> List[Item]:
    """Chaos cells take no input files: one item per grid size, whose
    ``roots`` is the simulated execution's root count (3 clients)."""
    out.mkdir(parents=True, exist_ok=True)
    return [
        Item("", "stack3", "chaos", 3 * txns, 3) for txns in CHAOS_SWEEP
    ]


GENERATORS = {
    "check-stack": check_stack,
    "check-ensemble": check_ensemble,
    "watch-stack": watch_stack,
    "chaos-grid": chaos_grid,
}


def manifest(items: List[Item]) -> str:
    return json.dumps([asdict(item) for item in items], sort_keys=True)
