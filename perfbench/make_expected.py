"""Regenerate ``expected_verdicts.json``: the reviewed verdicts of the
fixed pools of random-layout systems that ``check-ensemble`` samples.

Each verdict is decided by the Def.-16 reduction, the oracle, and must
agree with the streaming checker's live verdict and with the static
analyzer whenever that proves anything; the script refuses to write the
file otherwise.  For stacks, forks and joins it also records the
Thm 2-4 criterion (SCC, FCC, JCC) and its verdict.  An entry where the
criterion disagrees with the oracle is kept, flagged and printed: it
is a known defect of the criterion or of the reduction, and the
benchmark reports it on every run that samples it.

Review the diff before committing a regenerated file: a changed verdict
means the reduction changed meaning.

Run from the repository root: ``python3 perfbench/make_expected.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from pb import inputs  # noqa: E402
from pb.workloads import criterion  # noqa: E402
from repro.core.correctness import check_composite_correctness  # noqa: E402
from repro.io import events_from_recorded, loads  # noqa: E402
from repro.lint import lint_system  # noqa: E402
from repro.stream import IncrementalChecker  # noqa: E402


def main() -> int:
    verdicts = {}
    for shape in inputs.ENSEMBLE_SHAPES:
        for index in range(inputs.POOL_SIZE):
            key, roots, gen_seed = inputs.pool_entry(shape, index)
            text = inputs.generate_text(shape, "random", roots, gen_seed)
            system = loads(text).system
            comp_c = check_composite_correctness(system).correct
            live = IncrementalChecker()
            live.ingest_all(events_from_recorded(loads(text)))
            if live.verdict().rejected == comp_c:
                raise SystemExit(f"{key}: streaming verdict disagrees")
            safety = lint_system(system).safety
            static = str(safety.verdict) if safety is not None else "none"
            if (static == "certified_safe" and not comp_c) or (
                static == "certified_unsafe" and comp_c
            ):
                raise SystemExit(f"{key}: static verdict disagrees")
            name, decided = criterion(system)
            entry = {
                "sha256": inputs.digest(text),
                "comp_c": comp_c,
                "static": static,
                "criterion": name,
                "criterion_comp_c": decided,
            }
            if decided is not None and decided != comp_c:
                entry["criterion_disagrees"] = True
                print(f"{key}: {name} says {decided}, the reduction {comp_c}")
            verdicts[key] = entry
    document = {
        "about": (
            "Reviewed Comp-C verdicts of the random-layout pools of "
            "check-ensemble; regenerate with perfbench/make_expected.py"
        ),
        "verdicts": verdicts,
    }
    inputs.EXPECTED_VERDICTS.write_text(
        json.dumps(document, indent=1, sort_keys=True) + "\n"
    )
    accepted = sum(v["comp_c"] for v in verdicts.values())
    print(f"{len(verdicts)} pool verdicts written, {accepted} Comp-C")
    return 0


if __name__ == "__main__":
    sys.exit(main())
