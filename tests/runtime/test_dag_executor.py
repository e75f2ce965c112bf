"""Tests of task descriptions and dependency analysis."""

import pytest

from repro.runtime import Task, build_task_graph


def _write_task(name, key, reads=()):
    return Task(name=name, kind="WRITE", reads=tuple(reads), writes=(key,), flops=4.0)


class TestTask:
    def test_accesses_and_repr(self):
        t = Task(name="t", kind="K", reads=(("a", 0, 0),), writes=(("b", 0, 0),), flops=1.0)
        assert t.accesses == (("a", 0, 0), ("b", 0, 0))
        assert "t" in repr(t)


class TestTaskGraph:
    def test_raw_dependencies(self):
        tasks = [
            _write_task("a", ("x",)),
            _write_task("b", ("y",), reads=[("x",)]),
            _write_task("c", ("z",), reads=[("x",), ("y",)]),
        ]
        graph = build_task_graph(tasks)
        assert graph.n_tasks == 3
        assert graph.graph.has_edge("a", "b")
        assert graph.graph.has_edge("b", "c")
        assert graph.graph.has_edge("a", "c")

    def test_write_after_read_ordering(self):
        tasks = [
            _write_task("producer", ("x",)),
            _write_task("reader", ("y",), reads=[("x",)]),
            _write_task("overwriter", ("x",)),
        ]
        graph = build_task_graph(tasks)
        assert graph.graph.has_edge("reader", "overwriter")

    def test_duplicate_names_rejected(self):
        tasks = [_write_task("a", ("x",)), _write_task("a", ("y",))]
        with pytest.raises(ValueError):
            build_task_graph(tasks)

    def test_critical_path_and_parallelism(self):
        tasks = [
            _write_task("a", ("x",)),
            _write_task("b", ("y",)),
            _write_task("c", ("z",), reads=[("x",), ("y",)]),
        ]
        graph = build_task_graph(tasks)
        length, path = graph.critical_path(cost=lambda t: 1.0)
        assert length == 2.0
        assert path[-1] == "c"
        assert graph.parallelism_profile() == [2, 1]
        assert graph.max_parallelism() == 2
        assert graph.average_parallelism(cost=lambda t: 1.0) == pytest.approx(1.5)

    def test_flop_accounting(self):
        tasks = [_write_task("a", ("x",)), _write_task("b", ("y",))]
        graph = build_task_graph(tasks)
        assert graph.total_flops() == 8.0
        assert graph.flops_by_kind() == {"WRITE": 8.0}
        assert graph.counts_by_kind() == {"WRITE": 2}
        assert graph.flops_by_precision() == {"fp64": 8.0}

    def test_empty_graph(self):
        graph = build_task_graph([])
        assert graph.critical_path() == (0.0, [])
        assert graph.max_parallelism() == 0

