"""Operation timing corrected for how fast the shared host runs right now.

On the shared 2-core host this benchmark was built on, other tenants slow
every instruction stream for stretches of a fraction of a second to minutes:
a fixed load runs in ~6.5 ms when the host is quiet and in 11-13 ms, at
times 24 ms, when it is not. CPU time slows as much as wall time, so neither
clock escapes it, and a whole 25-second run can sit in a slow stretch.

`OperationClock` times each operation and samples a fixed reference load
just before it, at the end of each pass and, where a solver offers a
callback, between its steps. The reference load is a mix of the work the
solvers do (a Python loop of tiny dense products, large random gathers, a
small dense SVD) built from numpy alone, so no change to lowrank moves it.
`speed_scale` turns a run's samples into the factor that converts its wall
times to seconds on the quiet host.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# the reference load's time on the quiet host, rounded down from the 10th
# percentile of 1620 samples over 40 runs (6.6 ms; median 10.4 ms)
REFERENCE_S = 0.0065

_rng = np.random.default_rng(20210116)
_SMALL = _rng.standard_normal((20, 20))
_VALUES = _rng.standard_normal(1 << 18)
_INDEX = _rng.integers(0, _VALUES.size, _VALUES.size)
_DENSE = _rng.standard_normal((80, 80))


def _load() -> float:
    x = np.ones(20)
    for _ in range(1500):
        x = _SMALL @ x
        x /= np.linalg.norm(x)
    total = float(x[0])
    for _ in range(2):
        total += float(_VALUES[_INDEX] @ _VALUES)
    total += float(np.linalg.svd(_DENSE, compute_uv=False)[0])
    return total


def reference_samples(samples: int = 3) -> list[float]:
    """Seconds taken by each of `samples` runs of the reference load."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        _load()
        times.append(time.perf_counter() - start)
    return times


def speed_scale(samples: list[float]) -> float:
    """Factor from wall seconds to quiet-host seconds over the sampled span."""
    return REFERENCE_S / statistics.mean(samples)


class OperationClock:
    """Wall time of operations, with reference samples collected in `samples`.

    `probe` is meant as a solver callback: it samples the reference load
    between steps, and its own time is left out of the operation's.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._paused = 0.0

    def probe(self, *_) -> None:
        start = time.perf_counter()
        self.samples += reference_samples()
        self._paused += time.perf_counter() - start

    def run(self, operation):
        """(result, or the exception it raised; wall seconds)."""
        self.samples += reference_samples()
        self._paused = 0.0
        start = time.perf_counter()
        try:
            result = operation()
        except Exception as exc:  # noqa: BLE001 - checked as a failed operation
            result = exc
        return result, time.perf_counter() - start - self._paused
