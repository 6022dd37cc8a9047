"""Speed normalization against a fixed calibration kernel.

On a shared machine the same item can take 30% longer for a minute at a
time while a neighbour is busy, and the pure-Python and LAPACK parts of
the program slow down together. The probe times a fixed kernel (a Python
integer loop and small symmetric eigensolves, best of three) between
items; dividing an item's duration by the mean probe time on either side
of it and multiplying by REF_S gives seconds at reference speed. The
kernel uses numpy only, never the program, so a change to the program
moves the normalized times exactly as it moves the raw ones.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Best-of-three kernel time on the reference machine (2-vCPU Intel Xeon VM,
# numpy 2.4 with OpenBLAS 0.3.31 on one thread).
REF_S = 2.0e-3


class SpeedProbe:
    def __init__(self) -> None:
        a = np.random.default_rng(0).standard_normal((48, 48))
        self.sym = a + a.T

    def sample(self) -> float:
        """Best of three kernel durations, in seconds."""
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            acc = 0
            for k in range(20000):
                acc += k * k
            for _ in range(8):
                np.linalg.eigvalsh(self.sym)
            best = min(best, time.perf_counter() - t0)
        return best

    @staticmethod
    def normalize(durations: list[float], samples: list[float]) -> list[float]:
        """Scale duration i by the samples taken before (i) and after (i + 1) it."""
        return [d * 2.0 * REF_S / (samples[i] + samples[i + 1]) for i, d in enumerate(durations)]
