"""Empirical validation of Theorems 2–4: SCC/FCC/JCC ⇔ Comp-C on their
configurations.  These are the library's strongest correctness tests —
any disagreement on any random instance is a bug in the reduction or in
a criterion."""

import pytest

from repro.core.correctness import is_composite_correct
from repro.criteria.fork import is_fcc, is_fork
from repro.criteria.join import is_jcc
from repro.criteria.stack import is_scc
from repro.workloads.generator import WorkloadConfig, generate
from repro.workloads.topologies import (
    fork_topology,
    join_topology,
    stack_topology,
)

SEEDS = range(25)
CONFLICT_RATES = (0.05, 0.2, 0.45)


def ensemble(spec, roots=3, seeds=SEEDS):
    for cp in CONFLICT_RATES:
        for seed in seeds:
            yield generate(
                spec,
                WorkloadConfig(
                    seed=seed,
                    roots=roots,
                    conflict_probability=cp,
                    layout="random",
                    intra_order_probability=0.25,
                ),
            )


@pytest.mark.parametrize("depth", [2, 3, 4])
def test_theorem2_scc_iff_comp_c(depth):
    both = set()
    for rec in ensemble(stack_topology(depth)):
        scc = is_scc(rec.system)
        comp = is_composite_correct(rec.system)
        assert scc == comp, rec.executions
        both.add(scc)
    assert both == {True, False}, "ensemble must exercise both verdicts"


@pytest.mark.parametrize("branches", [2, 4])
def test_theorem3_fcc_iff_comp_c(branches):
    """Only Def.-23 forks count: the generator also draws caller
    conflicts across branches, which Def. 23.3 excludes, so the fork
    ensemble draws more seeds to keep both verdicts in the sample."""
    both = set()
    forks = 0
    for rec in ensemble(fork_topology(branches), roots=4, seeds=range(60)):
        if not is_fork(rec.system):
            continue
        forks += 1
        fcc = is_fcc(rec.system)
        comp = is_composite_correct(rec.system)
        assert fcc == comp, rec.executions
        both.add(fcc)
    assert forks >= 20
    assert both == {True, False}


@pytest.mark.parametrize("clients", [2, 4])
def test_theorem4_jcc_iff_comp_c(clients):
    both = set()
    for rec in ensemble(join_topology(clients), roots=4):
        jcc = is_jcc(rec.system)
        comp = is_composite_correct(rec.system)
        assert jcc == comp, rec.executions
        both.add(jcc)
    assert both == {True, False}
