"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE),
                os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")]

from repro.obs.timeline import validate_chrome_trace  # noqa: E402

from pcbench import layers  # noqa: E402
from pcbench.child import Runner  # noqa: E402
from pcbench.stats import percentile  # noqa: E402
from pcbench.trace import (  # noqa: E402
    Recorder,
    Target,
    install,
    self_time,
    self_times,
    to_chrome_trace,
)
from pcbench.workloads import Operation  # noqa: E402


# -- percentiles ----------------------------------------------------------------


def test_p90_refuses_fewer_than_100_samples():
    with pytest.raises(ValueError):
        percentile(range(99), 90)
    assert percentile(range(100), 90) == pytest.approx(89.1)


def test_p50_needs_twenty_samples():
    with pytest.raises(ValueError):
        percentile(range(19), 50)
    assert percentile(range(21), 50) == 10


# -- self time ------------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    # Parent 0..10 with children 1..3 and 5..6: 3 s covered.
    assert self_time(0, 10, [(1, 3), (5, 6)]) == pytest.approx(7)


def test_self_time_counts_overlapping_children_once():
    # 1..4 and 3..6 overlap on 3..4: the union covers 5 s, not 6.
    assert self_time(0, 10, [(1, 4), (3, 6)]) == pytest.approx(5)
    # A child sticking out of the parent only covers the overlap.
    assert self_time(0, 10, [(8, 12)]) == pytest.approx(8)
    # Leaf time is subtracted too.
    assert self_time(0, 10, [(1, 4), (3, 6)], leaf_s=1) == pytest.approx(4)


def test_self_times_of_a_recorded_tree():
    ticks = iter([0, 1, 2, 4, 5, 10])
    recorder = Recorder(clock=lambda: next(ticks))
    outer = recorder.open("outer")          # 0
    inner = recorder.open("inner")          # 1
    leaf = recorder.open("leaf")            # 2
    recorder.close(leaf)                    # 4
    recorder.close(inner)                   # 5
    recorder.close(outer)                   # 10
    assert self_times(recorder.spans) == {
        "outer": pytest.approx(6), "inner": pytest.approx(2),
        "leaf": pytest.approx(2),
    }
    payload = to_chrome_trace(recorder.spans)
    assert validate_chrome_trace(payload) == []


# -- wrappers -------------------------------------------------------------------


def _bindings():
    """Every module/class binding the layer targets touch, by identity."""
    import repro.cluster.cluster as cluster_mod
    import repro.cluster.scheduler as scheduler_mod
    import repro.memory.block as block_mod
    import repro.storage.buffer_pool as pool_mod
    import repro.storage.replication as repl_mod

    block = block_mod.AllocationBlock
    return [
        cluster_mod.compile_computations, cluster_mod.optimize,
        cluster_mod.mark_columnar, cluster_mod.plan_pipelines,
        scheduler_mod.verify_program, scheduler_mod.serialize_task,
        scheduler_mod.page_checksum, pool_mod.page_checksum,
        repl_mod.page_checksum, block.__dict__["allocate"],
        block.__dict__["from_bytes"], block.__dict__["to_bytes"],
        scheduler_mod.DistributedScheduler.__dict__["execute"],
    ]


def test_wrappers_are_fully_removed():
    before = _bindings()
    recorder = Recorder()
    installation = install(recorder, layers.TARGETS)
    during = _bindings()
    assert all(a is not b for a, b in zip(before, during))
    installation.remove()
    assert all(a is b for a, b in zip(before, _bindings()))

    from repro.storage.replication import page_checksum
    page_checksum(b"abc")
    assert recorder.spans == [] and recorder.tallies == {}


def test_wrapper_records_generator_steps_and_restores():
    import types

    module = types.ModuleType("repro._harness_probe")

    def numbers():
        yield 1
        yield 2

    module.numbers = numbers
    sys.modules[module.__name__] = module
    try:
        recorder = Recorder()
        installation = install(
            recorder, [Target("probe.step", "repro._harness_probe:numbers")])
        assert list(module.numbers()) == [1, 2]
        installation.remove()
        assert module.numbers is numbers
    finally:
        del sys.modules[module.__name__]
    # The call itself, two yielding steps and the exhausting step.
    assert [s.name for s in recorder.spans] == ["probe.step"] * 4
    assert all(s.end is not None for s in recorder.spans)


# -- failure accounting -----------------------------------------------------------


class _FakeCluster:
    def execute_computations(self, sinks, **kwargs):
        return []


class _FakeWorkload:
    def __init__(self):
        self.cluster = _FakeCluster()

    def _jobs(self, n, value):
        def run():
            for _ in range(n):
                self.cluster.execute_computations(None)
            return value
        return run

    def round(self, index):
        def broken():
            raise RuntimeError("boom")

        return [
            Operation("ok", self._jobs(3, 1), lambda got: got == 1),
            Operation("wrong", self._jobs(2, 5), lambda got: got == 1),
            Operation("raises", broken, lambda got: True),
            Operation("no_jobs", lambda: None, lambda got: True),
        ]


def test_failure_accounting(capsys):
    runner = Runner(_FakeWorkload())
    runner.round()
    # 3 good jobs, 2 jobs with a wrong answer, 1 operation that raised
    # before issuing a job (counted as one failed attempt).
    assert runner.attempted == 6
    assert runner.failed == 3
    assert len(runner.latencies) == 5
    assert "raises failed" in capsys.readouterr().err
