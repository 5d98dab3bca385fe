"""Seeded random streams, Monte Carlo estimates, their discard rule and a pool.

Every Monte Carlo routine in this package takes an explicit stream (or a
seed from which per-trial streams are derived), so results are bit-for-bit
reproducible and independent of worker scheduling.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

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


#: Largest share of discarded Monte Carlo draws (tau trials, delta draws)
#: that an estimate accepts; a larger one raises DegenerateConfigurationError.
MAX_DISCARDED_SHARE = 0.05


class DegenerateConfigurationError(RuntimeError):
    """Degenerate draw (non-isolated or borderline-real solutions) or too many
    discarded; path_log holds the log of the first trial that lost paths."""

    path_log = ()


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo estimate with its standard error and discarded samples."""

    mean: float
    stderr: float
    samples: int
    degenerate: int = 0         # samples discarded
    failed: int = 0             # of those, lost to a numerical failure
    diagnostics: dict = field(default_factory=dict)     # deterministic run counters


def parallel_map(fn, tasks, workers: int = 1) -> list:
    """[fn(*task) for task in tasks], in order, spread over a pool of at most
    `workers` processes, capped at the tasks and the usable CPUs."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)       # no affinity call off Linux
    workers = min(workers, len(tasks), cpus)
    if workers > 1:
        from multiprocessing import Pool    # only here: it slows the import
        with Pool(workers) as pool:
            return pool.starmap(fn, tasks)
    return [fn(*task) for task in tasks]
