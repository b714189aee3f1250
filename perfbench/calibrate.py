"""A fixed unit of numpy and Python work that tracks the host's speed.

On a shared machine the same code runs up to twice as slow from one minute
to the next, and CPU time slows with wall time, so the cause is the host
and not scheduling. The unit below mixes what the library spends its time
on (einsum contractions, a Hermitian eigensolve, Kronecker products,
interpreted loops, JSON) and never calls the library. Timed between ops,
its median over a pass gives a speed factor; every timing the benchmark
reports is scaled to the speed at which one unit takes ``REFERENCE_S``.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

# median time of one unit on the 2-core Xeon machine the benchmark was
# written on; it only sets the scale of the reported times
REFERENCE_S = 1.3e-3
SAMPLES_PER_OP = 3


class Calibration:
    """Times the fixed unit and turns samples into speed factors."""

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self.rho = (a @ a.conj().T).reshape((2,) * 12)
        self.block = (a @ a.conj().T)[:32, :32].copy()
        self.doc = {"values": [float(x) for x in rng.standard_normal(300)],
                    "labels": list(range(200))}

    def unit(self) -> float:
        """Run the unit once and return its wall time in seconds."""
        start = time.perf_counter()
        for _ in range(8):
            np.einsum(self.rho, list(range(12)), [0, 1, 2, 3, 4, 5])
        np.linalg.eigvalsh(self.block)
        k = np.eye(1)
        for _ in range(5):
            k = np.kron(k, np.eye(2) + 0.1j)
        acc = 0
        for i in range(3000):
            acc += i * i % 7
        json.loads(json.dumps(self.doc))
        return time.perf_counter() - start

    def samples(self, count: int = SAMPLES_PER_OP) -> list:
        return [self.unit() for _ in range(count)]

    @staticmethod
    def factor(samples: list) -> float:
        """Multiplier that maps times taken at the sampled speed to the
        reference speed."""
        return REFERENCE_S / statistics.median(samples)
