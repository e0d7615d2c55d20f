"""The repository's benchmark: ``check``, ``lint``, ``watch`` and
``chaos`` wall time on four seeded workloads, attributed per layer.

Run from the repository root::

    python3 perfbench/run.py --workload check-stack --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the user commands with tracing off and prints
every end-to-end metric; ``--trace 1`` runs the traced passes and
prints every per-layer metric.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The line before it is the run's full record (provenance,
per-metric quartiles, every failure), also written under
``.perfbench_work/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("check-stack", "check-ensemble", "watch-stack", "chaos-grid")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = HERE.parent / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    from pb import bench

    result, record = bench.run(args.workload, args.seed, args.seconds, args.trace)
    results = bench.WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
