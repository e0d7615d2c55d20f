"""T3 — Theorem 3: FCC ⇔ Comp-C on fork configurations.

Randomized fork executions over several branch counts; the FCC verdict
(Def. 24: coordinator CC + joint branch-order acyclicity) must agree
with Comp-C on every Def.-23 fork instance.  The benchmark times one ensemble pass.
"""

from repro.analysis.tables import banner, format_table
from repro.analysis.theorems import agreement_experiment, theorem3_rows
from repro.criteria.fork import is_fcc
from repro.workloads.topologies import fork_topology


def run_fork3():
    return agreement_experiment(
        fork_topology(3), is_fcc, "fork x3", trials=60, seed=0, roots=4
    )


def test_bench_t3_fork(benchmark, emit):
    benchmark.pedantic(run_fork3, rounds=2, iterations=1)
    # Def. 23.3 keeps only forks whose caller declares no conflict
    # across branches: about a third of the generated fork topologies
    # (fewer with more branches), hence the larger draw.
    rows = theorem3_rows(branch_counts=(2, 3, 5), trials=240, seed=0)

    for row in rows:
        assert row.disagreements == 0, row
        assert 0 < row.accepted <= row.trials

    table = format_table(
        ["configuration", "instances", "agreements", "Comp-C accepted"],
        [[r.label, r.trials, r.agreements, r.accepted] for r in rows],
    )
    emit(
        "T3",
        banner("T3: Theorem 3 — FCC <=> Comp-C on forks")
        + "\n"
        + table
        + "\npaper claim reproduced: 100% agreement on every branch count.",
    )
