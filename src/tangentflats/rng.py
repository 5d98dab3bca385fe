"""Seeded random streams, Monte Carlo estimate records and a process pool.

Every Monte Carlo routine in this package takes an explicit stream (or a
seed from which per-trial streams are derived), so results are bit-for-bit
reproducible and independent of worker scheduling.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RngStream:
    """A counter-based random stream keyed by (seed, stream_id).

    Identical (seed, stream_id) pairs reproduce identical draws bit-for-bit,
    and distinct stream ids give statistically independent streams, which is
    what lets trials run in any order or in parallel.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed % (1 << 64), self.stream_id % (1 << 64)],
                       dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, offset: int) -> "RngStream":
        return RngStream(self.seed, self.stream_id + offset)


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo estimate with its standard error and provenance."""

    mean: float
    stderr: float
    samples: int
    seed: int
    degenerate: int = 0         # samples discarded
    failed: int = 0             # of those, lost to a numerical failure

    def within(self, target: float, nsigma: float) -> bool:
        """True if `target` lies within nsigma standard errors of the mean."""
        return abs(self.mean - target) <= nsigma * self.stderr


def parallel_map(fn, tasks, workers: int = 1) -> list:
    """[fn(*task) for task in tasks], in order, spread over a pool of at
    most `workers` processes when there are several workers and tasks."""
    if workers > 1 and len(tasks) > 1:
        from multiprocessing import Pool    # only here: it slows the import
        with Pool(min(workers, len(tasks))) as pool:
            return pool.starmap(fn, tasks)
    return [fn(*task) for task in tasks]
