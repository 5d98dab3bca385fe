import multiprocessing

from tangentflats import rng


def recording_pool(sizes):
    class RecordingPool:
        """Records the pool size asked for and runs the tasks in this process."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, tasks):
            return [fn(*task) for task in tasks]

    return RecordingPool


def test_parallel_map_caps_its_pool_at_the_tasks_and_usable_cpus(monkeypatch):
    sizes = []
    monkeypatch.setattr(multiprocessing, "Pool", recording_pool(sizes))
    monkeypatch.setattr(rng.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    tasks = [(-i,) for i in range(10)]
    assert rng.parallel_map(abs, tasks, workers=500) == list(range(10))
    assert rng.parallel_map(abs, tasks[:2], workers=500) == [0, 1]
    assert rng.parallel_map(abs, tasks, workers=1) == list(range(10))
    assert sizes == [3, 2]


def test_parallel_map_counts_every_cpu_without_an_affinity_call(monkeypatch):
    # os.sched_getaffinity exists on Linux only
    sizes = []
    monkeypatch.setattr(multiprocessing, "Pool", recording_pool(sizes))
    monkeypatch.delattr(rng.os, "sched_getaffinity")
    monkeypatch.setattr(rng.os, "cpu_count", lambda: 2)
    tasks = [(-i,) for i in range(10)]
    assert rng.parallel_map(abs, tasks, workers=4) == list(range(10))
    monkeypatch.setattr(rng.os, "cpu_count", lambda: None)
    assert rng.parallel_map(abs, tasks, workers=4) == list(range(10))
    assert sizes == [2]
