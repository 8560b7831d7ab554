"""Host-speed calibration for the end-to-end times.

The benchmark shares its machine with other work, and the speed of the
machine drifts by a third and more over minutes.  Drift of that size is
wider than any bound a regression gate can use, so every reported time
is rescaled towards a reference host speed:

    reported = measured * (REFERENCE_S / calibration) ** EXPONENT

where ``calibration`` is the median time of :func:`kernel` over samples
taken between the operations the time covers (before each verdict of a
pass and after the last, so the samples span the pass and a burst of
contention moves one sample, not the median).  The kernel is the benchmark's
own pure-Python mix of what the solver does most (small-object
allocation, list-of-lists watch tables, bytearray reads, dict inserts);
it runs no code of the program under test, so no change to the program
can move it.

The workloads do not slow down exactly as much as the kernel does.  On a
shared 2-core Xeon host, eight sets of ten runs per workload were taken,
in four pairs.  Fitting log(pass time) against log(calibration), per
pair or per set, gave slopes from 0.2 to 1.0, most of them between 0.45
and 1.0, and the slope changed from one pair to the next.  The table
scores ``table_wall_s`` over those sets.  The spread is the
interquartile range over the median within a set.  The move is the
change of the median from one set of a pair to the other:

    EXPONENT   spread (median, max)   move (worst)
    0          0.145, 0.380           +67%   (the measured times)
    0.5        0.059, 0.162           +32%
    0.75       0.070, 0.142           -19%
    1          0.109, 0.211           +23%

Of these, 0.75 has the smallest worst move and the smallest largest
spread, so it is the exponent used.  Process CPU time (``time.process_time`` around
each verdict) was tried in place of the rescaling: it read 0.96-1.00
times the wall time in all 60 runs of one pair of sets, because the
host's slowdown is charged to the process as CPU time, so it left the
drift in.

The cyclic garbage collector is off while the kernel runs: a collection
would walk the program's whole heap, whose size differs from sample to
sample.  On a host where the kernel takes ``REFERENCE_S`` the
reported times are the measured ones.
"""

from __future__ import annotations

import gc
import random
import time

REFERENCE_S = 0.04
EXPONENT = 0.75
#: The fixed size of the kernel's work; changing it changes every
#: reported time, so results taken with different sizes do not compare.
KERNEL_CLAUSES = 12000
KERNEL_VARS = 2000

clock = time.perf_counter


class _Clause:
    __slots__ = ("lits", "activity")

    def __init__(self, lits):
        self.lits = lits
        self.activity = 0.0


def kernel() -> float:
    """Seconds for one fixed unit of install-and-propagate-like work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _work()
    finally:
        if enabled:
            gc.enable()


def _work() -> float:
    clauses, num_vars = KERNEL_CLAUSES, KERNEL_VARS
    rng = random.Random(7)
    start = clock()
    store = []
    watches = [[] for _ in range(2 * num_vars)]
    for cid in range(clauses):
        lits = [rng.randrange(2, 2 * num_vars) for _ in range(3)]
        store.append(_Clause(lits))
        watches[lits[0] ^ 1].append(cid)
        watches[lits[1] ^ 1].append(cid)
    value = bytearray(2 * num_vars)
    unit = 0
    for lit in range(2, 2 * num_vars, 5):
        if value[lit] or value[lit ^ 1]:
            continue
        value[lit] = 1
        for cid in watches[lit]:
            clause = store[cid]
            clause.activity += 1.0
            for other in clause.lits:
                if not value[other] and not value[other ^ 1]:
                    unit += 1
                    break
    index = {tuple(clause.lits): clause.activity for clause in store}
    if unit < 0 or not index:  # keeps the work observable
        raise AssertionError("calibration kernel did no work")
    return clock() - start


def scale(calibration_s: float) -> float:
    """Reference-host seconds per measured second."""
    return (REFERENCE_S / calibration_s) ** EXPONENT
