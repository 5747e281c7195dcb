"""Machine-speed reference used to normalise op times.

The 2-vCPU virtual machines this benchmark was written on change speed by
up to 1.5x for tens of seconds at a time. In six consecutive processes the
same `levels` op list took from 11.0 s to 17.0 s. No run length that fits
the benchmark's time budget averages that out.

A fixed kernel does the same kind of work as the ops: interpreted Python,
numpy calls on small arrays, and one LAPACK eigensolve. Timed before each
op, it tracks that speed. Over the same six processes, op time divided by
kernel time varied by only 4%. The benchmark therefore scales the times of
a run to a machine on which the kernel takes NOMINAL_S, by the run's mean
kernel time. The kernel uses numpy alone, so a change to spinchain cannot
move it.

Not every op follows the kernel one for one. The slope of log op time
against log kernel time, over the runs of each workload, is about 1 for
the interpreted ops of `levels` (1.09) and `trajectories` (0.92). On
`mathieu-chart` it is 0.6 for the millisecond ops, 0.4 for the tail ops
and 0.2 for the multi-second eigensolves, which are bound by memory
rather than by the interpreter. A workload's times are therefore scaled by
(NOMINAL_S / mean kernel time) ** exponent, with the exponent of
`workloads.SPEED_EXPONENT`. Over 16 `mathieu-chart` runs, exponent 1
spread wall_s by 0.20 and op_tail_ms by 0.14; exponent 0.4 by 0.05 and
0.09; no scaling by 0.06 and 0.16.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.015

_MATRIX = np.random.default_rng(0).standard_normal((120, 120))
_MATRIX = _MATRIX + _MATRIX.T


def kernel_s() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(3000):
        v = np.array([i, 1.0, 2.0, 3.0])
        acc += float((v * 0.5 + 1.0).sum())
        table[i % 97] = (i, acc)
    np.linalg.eigh(_MATRIX)
    return time.perf_counter() - t0


class SpeedLog:
    """Kernel samples taken over a run."""

    def __init__(self):
        self.samples: list[float] = []
        for _ in range(3):  # the first runs include one-off set-up in numpy
            kernel_s()

    def sample(self) -> None:
        self.samples.append(kernel_s())

    def scale(self, exponent: float) -> float:
        """Factor that takes the run's times to nominal speed, for ops whose
        time goes as the kernel's to the power `exponent`."""
        return (NOMINAL_S / statistics.mean(self.samples)) ** exponent
