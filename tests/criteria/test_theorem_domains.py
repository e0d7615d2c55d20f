"""Theorems 3 and 4 only decide systems inside their hypotheses.

Two generated systems used to get a criterion verdict that contradicts
the reduction:

* ``fork2-random-12`` (the benchmark pool's fork2, random layout, 4
  roots, seed 12): its caller ``F`` declares the conflicts {t4, t6} and
  {t2, t7}, each joining operations served by different branches,
  which Def. 23.3 rules out.  It is no Def.-23 fork, so FCC does not
  apply and the reduction decides it.
* a join (join2, random layout, 6 roots, seed 6) whose callee orders
  ``t9 ⇝ t8 ⇝ t4`` with ``t8`` and ``t4`` two commuting operations of
  one caller: the ghost graph must read that path, not just direct
  callee pairs.
"""

import pytest

from repro.core.correctness import is_composite_correct
from repro.criteria.fork import is_fcc, is_fork
from repro.criteria.join import ghost_graph, is_jcc, is_join
from repro.workloads.generator import WorkloadConfig, generate
from repro.workloads.topologies import fork_topology, join_topology


def _ensemble_system(spec, roots, seed, layout="random"):
    """A system drawn at the benchmark ensemble's settings."""
    return generate(
        spec,
        WorkloadConfig(
            seed=seed,
            roots=roots,
            layout=layout,
            ops_per_transaction=(1, 3),
            conflict_probability=0.1,
        ),
    ).system


def test_fork_with_cross_branch_caller_conflict_is_no_fork():
    system = _ensemble_system(fork_topology(2), roots=4, seed=12)
    caller = system.schedule("F")
    pairs = {tuple(sorted(pair)) for pair in caller.conflicts}
    assert pairs == {("t4", "t6"), ("t2", "t7")}
    for a, b in pairs:
        assert system.schedule_of_transaction(a) != (
            system.schedule_of_transaction(b)
        )
    assert not is_fork(system)
    with pytest.raises(ValueError):
        is_fcc(system)
    assert not is_composite_correct(system)


def test_ghost_graph_follows_paths_through_one_caller():
    system = _ensemble_system(join_topology(2), roots=6, seed=6)
    assert is_join(system)
    # t3 (R2) ⇝ t9 (R5) ⇝ t8 (R4) ⇝ t4 (R2): R5 sits inside R2
    assert ("R2", "R5") in set(ghost_graph(system, "J").pairs())
    assert ("R5", "R2") in set(ghost_graph(system, "J").pairs())
    assert not is_jcc(system)
    assert not is_composite_correct(system)


@pytest.mark.parametrize("layout", ["random", "perturbed", "serial"])
def test_seeded_fork_join_search_has_no_disagreement(layout):
    """FCC and JCC agree with the reduction on every Def.-23 fork and
    Def.-25 join of a seeded search at the ensemble settings."""
    decided = 0
    for spec in (fork_topology(2), fork_topology(3), join_topology(2)):
        for roots in (2, 4, 6):
            for seed in range(12):
                system = _ensemble_system(spec, roots, seed, layout)
                if is_fork(system):
                    verdict = is_fcc(system)
                elif is_join(system):
                    verdict = is_jcc(system)
                else:
                    continue
                decided += 1
                assert verdict == is_composite_correct(system), (
                    spec.name, roots, seed,
                )
    assert decided >= 60
