"""Machine-readable reduction traces.

Serializes a :class:`repro.core.reduction.ReductionResult` — every
front's nodes and relations, the per-level witness sequences, the
per-level cost profile, and the failure certificate when rejected — as
a JSON document.  Useful for debugging checker verdicts offline, for
diffing two runs, and as input to external visualizers.  Exposed on
the CLI as ``check --trace``.

Traces round-trip: :func:`load_trace` / :func:`trace_from_dict` rebuild
the fronts as real :class:`~repro.core.front.Front` objects (relations
included), so a saved trace can be re-validated and diffed against a
fresh run without the original execution file.  Every document carries
``TRACE_VERSION`` and loading rejects unknown versions instead of
misreading them.

Version history
---------------
``2``
    added a ``skip`` field and per-level ``skipped`` profile flags for
    verdicts that came from a static prover instead of the reduction.
    That prover path is gone: traces are written without those keys,
    and loading ignores them (and any ``static_certificate``), so a
    trace that recorded a skip still loads and diffs — as a trace with
    no fronts.  Version-1 traces load the same way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.front import Front
from repro.core.orders import Relation
from repro.core.reduction import LevelProfile, ReductionResult
from repro.exceptions import ParseError
from repro.io.jsondoc import parse_json_document

TRACE_VERSION = 2


def _front_to_dict(front: Front) -> Dict:
    return {
        "level": front.level,
        "nodes": list(front.nodes),
        "observed": [list(p) for p in front.observed.pairs()],
        "input_weak": [list(p) for p in front.input_weak.pairs()],
        "input_strong": [list(p) for p in front.input_strong.pairs()],
        "conflict_consistent": front.is_conflict_consistent(),
    }


def trace_to_dict(result: ReductionResult) -> Dict:
    """The full reduction trace as a plain dictionary."""
    document: Dict = {
        "version": TRACE_VERSION,
        "order": result.system.order,
        "roots": list(result.system.roots),
        "succeeded": result.succeeded,
        "fronts": [_front_to_dict(front) for front in result.fronts],
        "witnesses": [list(w) for w in result.witnesses],
        "profile": [
            {
                "level": p.level,
                "seconds": p.seconds,
                "closure_calls": p.closure_calls,
                "closure_rows": p.closure_rows,
                "nodes": p.nodes,
                "observed_pairs": p.observed_pairs,
            }
            for p in result.profile
        ],
    }
    if result.succeeded:
        document["serial_witness"] = result.serial_order()
    else:
        failure = result.failure
        document["failure"] = {
            "level": failure.level,
            "stage": failure.stage,
            "cycle": list(failure.cycle),
            "blocked": list(failure.blocked),
            "description": failure.describe(),
        }
    return document


def dumps_trace(result: ReductionResult, *, indent: int = 2) -> str:
    return json.dumps(trace_to_dict(result), indent=indent, sort_keys=True)


def save_trace(result: ReductionResult, path: Union[str, Path]) -> None:
    Path(path).write_text(dumps_trace(result), encoding="utf-8")


# ----------------------------------------------------------------------
# loading (the other half of the round trip)
# ----------------------------------------------------------------------
@dataclass
class ReductionTrace:
    """A reloaded reduction trace.

    A system-free view of a :class:`ReductionResult`: the fronts are
    real :class:`Front` objects (relations rebuilt, so consistency can
    be re-checked), but the composite system itself is not stored in a
    trace — reload the execution file for that.
    """

    order: int
    roots: List[str]
    succeeded: bool
    fronts: List[Front]
    witnesses: List[List[str]]
    profile: List[LevelProfile] = field(default_factory=list)
    serial_witness: Optional[List[str]] = None
    failure: Optional[Dict] = None

    def level(self, level: int) -> Front:
        for front in self.fronts:
            if front.level == level:
                return front
        raise ParseError(f"trace has no level-{level} front")


def _front_from_dict(document: Dict) -> Front:
    nodes = tuple(document["nodes"])
    front = Front(
        level=document["level"],
        nodes=nodes,
        observed=Relation(document["observed"], elements=nodes),
        input_weak=Relation(document["input_weak"], elements=nodes),
        input_strong=Relation(document["input_strong"], elements=nodes),
    )
    recorded = document.get("conflict_consistent")
    if recorded is not None and recorded != front.is_conflict_consistent():
        raise ParseError(
            f"trace level-{front.level} front records "
            f"conflict_consistent={recorded} but the reloaded relations "
            "disagree"
        )
    return front


def trace_from_dict(document: Dict) -> ReductionTrace:
    """Rebuild a :class:`ReductionTrace` from a trace dictionary.

    Raises :class:`~repro.exceptions.ParseError` on a missing or
    unsupported ``version`` and when a front's recorded consistency
    verdict contradicts its reloaded relations.
    """
    version = document.get("version")
    if version not in (1, TRACE_VERSION):
        raise ParseError(
            f"unsupported trace version {version!r} "
            f"(this library reads versions 1..{TRACE_VERSION})"
        )
    return ReductionTrace(
        order=document["order"],
        roots=list(document["roots"]),
        succeeded=document["succeeded"],
        fronts=[_front_from_dict(f) for f in document.get("fronts", [])],
        witnesses=[list(w) for w in document.get("witnesses", [])],
        profile=[
            LevelProfile(
                level=p["level"],
                seconds=p["seconds"],
                closure_calls=p["closure_calls"],
                closure_rows=p["closure_rows"],
                nodes=p["nodes"],
                observed_pairs=p["observed_pairs"],
            )
            for p in document.get("profile", [])
        ],
        serial_witness=document.get("serial_witness"),
        failure=document.get("failure"),
    )


def loads_trace(text: str, *, source: Optional[str] = None) -> ReductionTrace:
    """Parse trace JSON with the hardened document loader: invalid,
    truncated, or non-object text raises :class:`ParseError` carrying
    a ``CTX4xx`` diagnostic (file, line, byte offset) instead of a raw
    ``json.JSONDecodeError``."""
    return trace_from_dict(
        parse_json_document(text, source=source, expect_object=True)
    )


def load_trace(path: Union[str, Path]) -> ReductionTrace:
    return loads_trace(
        Path(path).read_text(encoding="utf-8"), source=str(path)
    )


def diff_traces(a: ReductionTrace, b: ReductionTrace) -> List[str]:
    """Human-readable differences between two traces.

    Compares verdicts, front structure, and witnesses — not the
    ``profile`` timings, which vary run to run by construction.  An
    empty list means the reductions were equivalent."""
    out: List[str] = []
    if a.succeeded != b.succeeded:
        out.append(f"verdict: {a.succeeded} vs {b.succeeded}")
    if a.serial_witness != b.serial_witness:
        out.append(
            f"serial witness: {a.serial_witness} vs {b.serial_witness}"
        )
    levels_a = {front.level: front for front in a.fronts}
    levels_b = {front.level: front for front in b.fronts}
    for level in sorted(set(levels_a) | set(levels_b)):
        fa, fb = levels_a.get(level), levels_b.get(level)
        if fa is None or fb is None:
            out.append(
                f"level {level}: present only in "
                f"{'second' if fa is None else 'first'} trace"
            )
            continue
        if fa.nodes != fb.nodes:
            out.append(
                f"level {level} nodes: {list(fa.nodes)} vs {list(fb.nodes)}"
            )
        for attr in ("observed", "input_weak", "input_strong"):
            pa = list(getattr(fa, attr).pairs())
            pb = list(getattr(fb, attr).pairs())
            if pa != pb:
                out.append(
                    f"level {level} {attr}: {len(pa)} pair(s) vs "
                    f"{len(pb)} pair(s)"
                )
    if a.witnesses != b.witnesses:
        out.append("witness sequences differ")
    return out
