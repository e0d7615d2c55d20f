"""Host-speed calibration.

The machines this benchmark runs on are shared: the same work runs up
to 1.5x slower for stretches of seconds to minutes, and a 20-second run
can fall entirely inside a slow stretch.  So the benchmark times a
fixed burst of its own pure-Python work (dicts, sets, big integers,
JSON, sorting: the operations the program spends its time in) right
before and after every timed unit, and reports each unit's time scaled
to a host on which the burst takes :data:`REFERENCE_S`.  The burst is
benchmark code, so a change to the program cannot move it: a program
that gets faster shows as faster, at any host speed.  Run records keep
the raw seconds and every burst's time next to the scaled values.

``chaos --workers 2`` runs its cells in worker processes, whose speed a
burst in this process does not track.  Its units are scaled by
:func:`parallel_burst` instead: a fixed job on a fresh two-process pool.
"""

from __future__ import annotations

import gc
import json
import time
from concurrent.futures import ProcessPoolExecutor

#: the burst's time on the reference host, a constant near the median
#: burst on the 2-vCPU x86_64 VM (CPython 3.11) the bounds were set on
REFERENCE_S = 0.002
#: the parallel burst's time on the reference host (its median there)
PARALLEL_REFERENCE_S = 0.16


def _work() -> int:
    table = {}
    for i in range(1200):
        table[(i % 97, i)] = {i, i + 1}
    bits = 0
    for (_, key), members in table.items():
        bits |= 1 << (key % 256)
        bits ^= len(members) << (key % 61)
    text = json.dumps([list(key) for key in table])
    order = sorted(json.loads(text), key=lambda pair: (pair[1] % 13, pair[0]))
    return bits.bit_count() + len(order)


def burst() -> float:
    """Seconds the fixed burst takes now: its second run, with the
    collector off, so that neither the caches the program left cold nor
    a collection of the program's objects is counted."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _work()
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def _task(repeats: int) -> int:
    return sum(_work() for _ in range(repeats))


def parallel_burst(workers: int) -> float:
    """Seconds a fixed job takes on a fresh pool of ``workers``
    processes, made the way the program's batch executor makes its
    pool: 16 tasks of six burst bodies each."""
    start = time.perf_counter()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        list(pool.map(_task, [6] * 16))
    return time.perf_counter() - start


def factor(*bursts: float, reference: float = REFERENCE_S) -> float:
    """Scale for a unit timed between (and among) these bursts."""
    return len(bursts) * reference / sum(bursts)
