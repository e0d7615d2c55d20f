"""The static safety pass: a two-sided, verdict-tiered Comp-C analysis.

Theorem 1 decides Comp-C by running the full reduction.  This pass
answers a cheaper question *without* executing Def. 16.  Every relation
the reduction feeds into a conflict-consistency check descends from
exactly two sources:

* a **conflict pair** of some schedule (observed-order seeds are
  conflict-gated, and pull-up only rewrites endpoints to ancestors), or
* a schedule's **weak input order** (closures decompose into covering
  pairs).

Projecting each source onto the level-``l`` front — mapping every node
to its level-``l`` representative (the ancestor it has been grouped
into) — turns a directed cycle of the front into a closed walk through
*distinct* undirected edges of a small multigraph.  The analysis is
tiered:

**Tier 1 — forest test.**  If the level-``l`` multigraph is a forest
for every level, no front can ever fail conflict consistency — the
system is Comp-C for *any* recorded execution
(``SafetyVerdict.CERTIFIED_SAFE``, tier ``"forest"``).

**Tier 2 — orientation analysis** (:mod:`repro.lint.orientation`).
A multigraph cycle is not yet a violation: weak-input edges are
*direction-forced* (a front's input order only ever contains recorded
input pairs and their closure, never reversals), while conflict edges
are *free* (different executions may order the pair either way).  When
no orientation of the free edges can close a *directed* cycle — no
forced arc sits inside a strongly connected component of the mixed
graph and the free edges alone are a forest — the system is again
certified for every recorded execution (tier ``"orientation"``),
strictly more systems than tier 1 certifies.

**Refuter.**  When a level survives both tiers, the pass reads the
*recorded* orientations off the schedules (weak-output order for
conflict pairs, input order for input edges) and searches for a
directed cycle under them.  A hit is only a *candidate*: Def.-10
pull-up may forget the offending pairs before they ever meet on a
front, so the candidate is validated by replaying the recorded
execution through the real Def.-16 engine
(:func:`repro.core.certificates.replay_refutation`), stopping at the
candidate level.  Only a reduction-rejected replay yields
``CERTIFIED_UNSAFE`` (surfaced as a ``CTX310`` error with the witness
attached); a clean replay leaves the cycle a ``CTX301`` warning.  The
refuter is therefore sound by construction, and — because the witness
*is* the recorded execution — a refuted verdict agrees exactly with
what the full reduction would decide.

The tier-1/2 arguments rely on conflict-gated observed-order seeding,
so the prover declines (``UNKNOWN`` with a ``CTX306`` note) when
:class:`~repro.core.observed.ObservedOrderOptions` asks for
``seed_leaf_order`` — verbatim Def. 10.1 seeds record non-conflict
pairs the multigraph does not model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.certificates import replay_refutation
from repro.core.observed import ObservedOrderOptions
from repro.core.orders import Relation
from repro.core.system import CompositeSystem
from repro.lint.diagnostics import DiagnosticCollector
from repro.lint.orientation import (
    Arc,
    find_directed_cycle,
    mixed_graph_unsafe_reason,
)
from repro.obs.telemetry import current
from repro.workloads.topologies import TopologySpec


class SafetyVerdict(enum.Enum):
    """The static analysis outcome for one system.

    ``CERTIFIED_SAFE`` and ``CERTIFIED_UNSAFE`` are both *proofs* —
    safe by the projection/orientation argument, unsafe by an actual
    replayed rejection — so either agrees with the reduction's
    verdict.  ``UNKNOWN`` means the analysis proved nothing.
    """

    CERTIFIED_SAFE = "certified_safe"
    CERTIFIED_UNSAFE = "certified_unsafe"
    UNKNOWN = "unknown"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class SafetyEdge:
    """One edge of the level-``l`` potential-conflict multigraph.

    ``endpoints`` are the level-``l`` representatives (sorted, the
    undirected view); ``pair`` is the original item pair (a conflict
    pair or a weak-input covering pair) of ``schedule`` the edge
    projects.  ``oriented`` is the *recorded* direction projected onto
    the representatives: for input edges always the recorded input
    direction; for conflict edges the weak-output order of the owning
    schedule, or ``None`` when the recorded execution leaves the pair
    unordered.
    """

    endpoints: Tuple[str, str]
    source: str  # "conflict" | "input"
    schedule: str
    pair: Tuple[str, str]
    level: int = -1
    oriented: Optional[Tuple[str, str]] = None

    def describe(self) -> str:
        a, b = self.pair
        what = "conflict" if self.source == "conflict" else "input order"
        return f"L{self.level} {self.schedule}:{what}({a}, {b})"

    def to_dict(self) -> Dict[str, object]:
        return {
            "endpoints": list(self.endpoints),
            "source": self.source,
            "schedule": self.schedule,
            "pair": list(self.pair),
            "level": self.level,
            "oriented": list(self.oriented) if self.oriented else None,
        }


@dataclass(frozen=True)
class LevelWitness:
    """The per-level certificate: either *forest* (no cycle can form at
    this level, with the component/edge counts as the witness) or one
    concrete multigraph cycle.

    ``orientable`` records the tier-2 outcome for non-forest levels:
    ``False`` means no orientation of the free edges can close a
    directed cycle (the level is certified anyway), ``True`` means some
    orientation could, ``None`` means tier 2 did not run (the level is
    a forest, or the prover declined).
    """

    level: int
    node_count: int
    edge_count: int
    forest: bool
    cycle_nodes: Tuple[str, ...] = ()
    cycle_edges: Tuple[SafetyEdge, ...] = ()
    orientable: Optional[bool] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "level": self.level,
            "node_count": self.node_count,
            "edge_count": self.edge_count,
            "forest": self.forest,
            "cycle_nodes": list(self.cycle_nodes),
            "cycle_edges": [e.to_dict() for e in self.cycle_edges],
            "orientable": self.orientable,
        }


@dataclass(frozen=True)
class RefutationWitness:
    """A replay-validated proof that the recorded execution is not
    Comp-C.

    ``cycle_edges`` is the statically found directed cycle under the
    recorded orientations (the candidate that triggered the replay);
    ``executions`` pins the recorded execution itself — one linear
    extension of the weak-output order per schedule owning a cycle
    edge; ``failure`` is the replayed engine's rejection as a plain
    dict (``level``/``stage``/``cycle``/``blocked``/``description``) —
    plain data so witnesses survive pickling across lint workers.
    """

    level: int
    cycle_nodes: Tuple[str, ...]
    cycle_edges: Tuple[SafetyEdge, ...]
    executions: Dict[str, Tuple[str, ...]]
    failure: Dict[str, object]

    def describe(self) -> str:
        ring = " -> ".join(self.cycle_nodes + self.cycle_nodes[:1])
        return (
            f"level-{self.level} directed cycle {ring} realized by the "
            f"recorded execution; replay: {self.failure['description']}"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "level": self.level,
            "cycle_nodes": list(self.cycle_nodes),
            "cycle_edges": [e.to_dict() for e in self.cycle_edges],
            "executions": {
                name: list(seq) for name, seq in sorted(self.executions.items())
            },
            "failure": dict(self.failure),
        }


@dataclass(frozen=True)
class StaticSafetyReport:
    """The analysis verdict over all levels ``0..N``.

    ``verdict`` is the two-sided outcome; ``tier`` names the certifying
    argument (``"forest"`` or ``"orientation"``) when safe;
    ``refutation`` carries the replay-validated witness when unsafe;
    ``declined`` marks the options-incompatible case (``CTX306``).
    """

    verdict: SafetyVerdict
    reason: Optional[str]
    witnesses: Tuple[LevelWitness, ...] = ()
    tier: Optional[str] = None
    refutation: Optional[RefutationWitness] = None
    declined: bool = False

    @property
    def certified(self) -> bool:
        return self.verdict is SafetyVerdict.CERTIFIED_SAFE

    @property
    def refuted(self) -> bool:
        return self.verdict is SafetyVerdict.CERTIFIED_UNSAFE

    @property
    def cycle_witnesses(self) -> Tuple[LevelWitness, ...]:
        return tuple(w for w in self.witnesses if not w.forest)

    def summary(self) -> str:
        if self.certified:
            checked = ", ".join(
                f"L{w.level}:{w.edge_count}e/{w.node_count}n"
                for w in self.witnesses
            )
            if self.tier == "orientation":
                return (
                    "statically Comp-C: no orientation of the free "
                    "conflict edges can close a directed cycle at any "
                    f"level ({checked})"
                )
            return (
                "statically Comp-C: every per-level potential-conflict "
                f"multigraph is a forest ({checked})"
            )
        if self.refuted and self.refutation is not None:
            return f"statically refuted: {self.refutation.describe()}"
        return f"not statically certified: {self.reason}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "certified": self.certified,
            "verdict": str(self.verdict),
            "reason": self.reason,
            "tier": self.tier,
            "declined": self.declined,
            "witnesses": [w.to_dict() for w in self.witnesses],
            "refutation": (
                self.refutation.to_dict() if self.refutation else None
            ),
        }


def _representative(system: CompositeSystem, node: str, level: int) -> str:
    """The level-``level`` representative of ``node``: walk the parent
    chain while the grouping step has already happened (Def. 16.2)."""
    while True:
        grouping = system.grouping_level(node)
        if grouping is None or grouping > level:
            return node
        node = system.parent(node)


def _covering_pairs(relation: Relation) -> List[Tuple[str, str]]:
    """The covering (Hasse) pairs of a transitively closed relation.

    Using covering pairs instead of the closure keeps the multigraph
    honest: the closure of a chain ``a < b < c`` would add the chord
    ``(a, c)`` and turn every 3-chain into a spurious triangle.
    """
    out: List[Tuple[str, str]] = []
    for a, b in sorted(relation.pairs()):
        if any(c != b and (c, b) in relation for c in relation.successors(a)):
            continue
        out.append((a, b))
    return out


def _level_edges(
    system: CompositeSystem, level: int
) -> List[SafetyEdge]:
    """The potential-conflict multigraph edges at reduction level
    ``level``, in a deterministic order."""
    edges: List[SafetyEdge] = []
    reps: Dict[str, str] = {}

    def rep(node: str) -> str:
        cached = reps.get(node)
        if cached is None:
            cached = _representative(system, node, level)
            reps[node] = cached
        return cached

    for sname in sorted(system.schedules):
        schedule = system.schedules[sname]
        for pair in sorted(schedule.conflicts, key=sorted):
            a, b = sorted(pair)
            if (
                system.materialization_level(a) > level
                or system.materialization_level(b) > level
            ):
                continue  # the operations are not front nodes yet
            u, v = rep(a), rep(b)
            if u == v:
                continue  # internal to one subtree: ordered below `level`
            # the recorded execution's direction for the pair, if any
            if (a, b) in schedule.weak_output:
                oriented: Optional[Tuple[str, str]] = (u, v)
            elif (b, a) in schedule.weak_output:
                oriented = (v, u)
            else:
                oriented = None
            edges.append(
                SafetyEdge(
                    endpoints=(u, v) if u <= v else (v, u),
                    source="conflict",
                    schedule=sname,
                    pair=(a, b),
                    level=level,
                    oriented=oriented,
                )
            )
        if system.level_of(sname) <= level:
            for a, b in _covering_pairs(schedule.weak_input):
                u, v = rep(a), rep(b)
                if u == v:
                    continue
                edges.append(
                    SafetyEdge(
                        endpoints=(u, v) if u <= v else (v, u),
                        source="input",
                        schedule=sname,
                        pair=(a, b),
                        level=level,
                        oriented=(u, v),
                    )
                )
    return edges


def _front_size(system: CompositeSystem, level: int) -> int:
    """How many nodes the level-``level`` front has."""
    count = 0
    for node in system.all_nodes():
        grouping = system.grouping_level(node)
        if system.materialization_level(node) <= level and (
            grouping is None or grouping > level
        ):
            count += 1
    return count


def _check_level(system: CompositeSystem, level: int) -> LevelWitness:
    """Union-find forest test over the level multigraph; parallel edges
    count as cycles (two sources connecting the same components can
    orient against each other)."""
    edges = _level_edges(system, level)
    parent: Dict[str, str] = {}
    adjacency: Dict[str, List[Tuple[str, SafetyEdge]]] = {}

    def find(x: str) -> str:
        root = x
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    for edge in edges:
        u, v = edge.endpoints
        ru, rv = find(u), find(v)
        if ru == rv:
            path = _forest_path(adjacency, u, v)
            cycle_nodes = tuple(n for n, _ in path) + (v, u)
            cycle_edges = tuple(e for _, e in path if e is not None) + (
                edge,
            )
            return LevelWitness(
                level=level,
                node_count=_front_size(system, level),
                edge_count=len(edges),
                forest=False,
                cycle_nodes=cycle_nodes,
                cycle_edges=cycle_edges,
            )
        parent[ru] = rv
        adjacency.setdefault(u, []).append((v, edge))
        adjacency.setdefault(v, []).append((u, edge))
    return LevelWitness(
        level=level,
        node_count=_front_size(system, level),
        edge_count=len(edges),
        forest=True,
    )


def _forest_path(
    adjacency: Mapping[str, Sequence[Tuple[str, "SafetyEdge"]]],
    start: str,
    goal: str,
) -> List[Tuple[str, Optional[SafetyEdge]]]:
    """The unique ``start -> goal`` path in the current forest, as
    ``(node, edge-to-next)`` steps (the last step's edge is ``None``
    placeholder-free: ``goal`` itself is not included)."""
    if start == goal:
        return []
    frontier = [start]
    came_from: Dict[str, Tuple[str, SafetyEdge]] = {start: (start, None)}  # type: ignore[dict-item]
    while frontier:
        node = frontier.pop()
        for neighbour, edge in adjacency.get(node, ()):
            if neighbour in came_from:
                continue
            came_from[neighbour] = (node, edge)
            if neighbour == goal:
                frontier = []
                break
            frontier.append(neighbour)
    if goal not in came_from:
        return [(start, None)]  # pragma: no cover - forest invariant
    steps: List[Tuple[str, Optional[SafetyEdge]]] = []
    cursor = goal
    while cursor != start:
        previous, edge = came_from[cursor]
        steps.append((previous, edge))
        cursor = previous
    steps.reverse()
    return steps


def _orient_level(witness: LevelWitness, edges: List[SafetyEdge]) -> bool:
    """Tier 2 for one non-forest level: ``True`` when some orientation
    of the free edges closes a directed cycle."""
    forced: List[Arc] = []
    free: List[Arc] = []
    for edge in edges:
        if edge.source == "input":
            # input edges are direction-forced; oriented is always set
            assert edge.oriented is not None
            forced.append(edge.oriented)
        else:
            free.append(edge.endpoints)
    return mixed_graph_unsafe_reason(forced, free) is not None


@dataclass(frozen=True)
class _Candidate:
    """A refutation candidate: a directed cycle under the recorded
    orientations at one level."""

    level: int
    cycle_nodes: Tuple[str, ...]
    cycle_edges: Tuple[SafetyEdge, ...]


def _recorded_cycle(
    level: int, edges: List[SafetyEdge]
) -> Optional[_Candidate]:
    """A directed cycle of the level multigraph under the *recorded*
    orientations, or ``None`` (conflict pairs the recorded execution
    leaves unordered impose no arc)."""
    arced = [e for e in edges if e.oriented is not None]
    cycle = find_directed_cycle([e.oriented for e in arced])  # type: ignore[misc]
    if cycle is None:
        return None
    chosen = tuple(arced[i] for i in cycle)
    nodes = tuple(e.oriented[0] for e in chosen if e.oriented is not None)
    return _Candidate(level=level, cycle_nodes=nodes, cycle_edges=chosen)


def _build_refutation(
    system: CompositeSystem,
    candidate: _Candidate,
    failure_level: int,
    failure: Dict[str, object],
) -> RefutationWitness:
    """Assemble the witness: the static cycle plus the recorded
    executions (linear extensions of weak output) of the schedules
    owning its edges."""
    executions: Dict[str, Tuple[str, ...]] = {}
    for edge in candidate.cycle_edges:
        if edge.schedule not in executions:
            schedule = system.schedule(edge.schedule)
            executions[edge.schedule] = tuple(
                schedule.weak_output.topological_sort()
            )
    return RefutationWitness(
        level=failure_level,
        cycle_nodes=candidate.cycle_nodes,
        cycle_edges=candidate.cycle_edges,
        executions=executions,
        failure=failure,
    )


def prove_static_safety(
    system: CompositeSystem,
    options: Optional[ObservedOrderOptions] = None,
    *,
    refute: bool = True,
) -> StaticSafetyReport:
    """Run the tiered analysis (see module doc).

    A ``CERTIFIED_SAFE`` verdict quantifies over *all* recorded
    executions of the system's schedules, so a certificate also covers
    re-runs with different execution sequences.  A ``CERTIFIED_UNSAFE``
    verdict is about *this* recorded execution — the refuter replayed
    it and the engine rejected.  ``refute=False`` stops after the
    certifier tiers (used where a replay would be redundant, e.g. when
    the caller is about to run the reduction anyway).
    """
    if options is not None and options.seed_leaf_order:
        return StaticSafetyReport(
            verdict=SafetyVerdict.UNKNOWN,
            reason=(
                "seed_leaf_order records non-conflict observed pairs; "
                "the static argument only covers conflict-gated seeds"
            ),
            declined=True,
        )
    tele = current()
    with tele.span("lint.prove", levels=system.order + 1) as span:
        witnesses: List[LevelWitness] = []
        level_edges: Dict[int, List[SafetyEdge]] = {}
        for level in range(system.order + 1):
            tele.count("lint.level_checked")
            edges = _level_edges(system, level)
            level_edges[level] = edges
            witnesses.append(_check_level(system, level))
        if all(w.forest for w in witnesses):
            span.note(certified=True, tier="forest")
            return StaticSafetyReport(
                verdict=SafetyVerdict.CERTIFIED_SAFE,
                reason=None,
                witnesses=tuple(witnesses),
                tier="forest",
            )
        # tier 2: orientation analysis on every non-forest level
        for i, witness in enumerate(witnesses):
            if witness.forest:
                continue
            tele.count("lint.orientation_checked")
            witnesses[i] = replace(
                witness,
                orientable=_orient_level(witness, level_edges[witness.level]),
            )
        cycles = [w for w in witnesses if not w.forest]
        certified = all(w.orientable is False for w in cycles)
        span.note(certified=certified, tier="orientation")
    if certified:
        return StaticSafetyReport(
            verdict=SafetyVerdict.CERTIFIED_SAFE,
            reason=None,
            witnesses=tuple(witnesses),
            tier="orientation",
        )
    first = next(w for w in cycles if w.orientable)
    reason = (
        f"level-{first.level} potential conflict cycle through "
        + " -> ".join(first.cycle_nodes)
    )
    if not refute:
        return StaticSafetyReport(
            verdict=SafetyVerdict.UNKNOWN,
            reason=reason,
            witnesses=tuple(witnesses),
        )
    # refuter: directed cycle under the recorded orientations, validated
    # by replaying the recorded execution through the real engine
    with tele.span("lint.refute") as span:
        candidates: List[_Candidate] = []
        for witness in cycles:
            if not witness.orientable:
                continue
            candidate = _recorded_cycle(
                witness.level, level_edges[witness.level]
            )
            if candidate is not None:
                tele.count("lint.refute_candidate")
                candidates.append(candidate)
        refutation: Optional[RefutationWitness] = None
        if candidates:
            deepest = max(c.level for c in candidates)
            replay = replay_refutation(system, deepest, options)
            if replay.failure is not None:
                failed = replay.failure
                failure = {
                    "level": failed.level,
                    "stage": failed.stage,
                    "cycle": list(failed.cycle),
                    "blocked": list(failed.blocked),
                    "description": failed.describe(),
                }
                matching = next(
                    (c for c in candidates if c.level == failed.level),
                    candidates[0],
                )
                refutation = _build_refutation(
                    system, matching, failed.level, failure
                )
        span.note(
            candidates=len(candidates), refuted=refutation is not None
        )
    if refutation is not None:
        return StaticSafetyReport(
            verdict=SafetyVerdict.CERTIFIED_UNSAFE,
            reason=refutation.describe(),
            witnesses=tuple(witnesses),
            refutation=refutation,
        )
    return StaticSafetyReport(
        verdict=SafetyVerdict.UNKNOWN,
        reason=reason,
        witnesses=tuple(witnesses),
    )


def analyze_system_safety(
    collector: DiagnosticCollector,
    system: CompositeSystem,
    options: Optional[ObservedOrderOptions] = None,
) -> StaticSafetyReport:
    """Run the analysis and surface its findings:

    * declined certification -> one ``CTX306`` note;
    * a replay-validated refutation -> one ``CTX310`` error carrying
      the witness cycle;
    * every remaining unresolved non-forest level -> a ``CTX301``
      warning naming the component cycle and the item pairs behind it
      (tier-2-certified levels are silent: they cannot misbehave).
    """
    report = prove_static_safety(system, options)
    if report.declined:
        collector.report(
            "CTX306",
            f"static certification declined: {report.reason}",
            fix_hint="drop seed_leaf_order (Def.-10.1 verbatim seeding) "
            "to make the system eligible for static certification",
        )
        return report
    refuted_level = (
        report.refutation.level if report.refutation is not None else None
    )
    if report.refutation is not None:
        witness = report.refutation
        pairs = "; ".join(e.describe() for e in witness.cycle_edges)
        collector.report(
            "CTX310",
            f"{witness.describe()} (via {pairs})",
            nodes=witness.cycle_nodes,
            fix_hint="the recorded execution is provably not Comp-C; "
            "re-order the conflicting operations or relax the conflict "
            "declarations",
        )
    for witness in report.cycle_witnesses:
        if witness.orientable is False:
            continue  # tier-2 certified: no orientation can misbehave
        if refuted_level is not None and witness.level == refuted_level:
            continue  # already reported as CTX310
        pairs = "; ".join(e.describe() for e in witness.cycle_edges)
        collector.report(
            "CTX301",
            f"level-{witness.level} front could form a conflict cycle "
            f"through {' -> '.join(witness.cycle_nodes)} (via {pairs})",
            nodes=witness.cycle_nodes,
            fix_hint="break the cycle (drop a conflict or an input-order "
            "pair) or rely on the full reduction to check the recorded "
            "execution",
        )
    return report


def analyze_topology_safety(
    collector: DiagnosticCollector, spec: TopologySpec
) -> bool:
    """The topology-level analogue: an undirected cycle in the
    invocation multigraph means two components can reach each other
    along two different routes — conflicts along those routes *could*
    close a cycle once programs are known.  A forest topology merely
    lacks that route structure; it is **not** a certificate (the
    programs and their conflicts are unknown), so no per-level witness
    is produced and ``True`` only means "no warning".
    """
    parent: Dict[str, str] = {}

    def find(x: str) -> str:
        root = x
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for caller in sorted(spec.invokes):
        for callee in spec.invokes[caller]:
            ru, rv = find(caller), find(callee)
            if ru == rv:
                collector.report(
                    "CTX301",
                    f"components {caller!r} and {callee!r} are connected "
                    "along two invocation routes — cross-schedule "
                    "conflicts could form a cycle",
                    schedule=caller,
                    nodes=(caller, callee),
                    fix_hint="a tree-shaped topology is statically safe "
                    "for any programs; otherwise run the full checker on "
                    "the recorded execution",
                )
                return False
            parent[ru] = rv
    return True
