"""Tests of the tile-based mixed-precision Cholesky factorisation."""

import sys
import threading

import numpy as np
import pytest

from repro.linalg import (
    MixedPrecisionCholesky,
    TiledSymmetricMatrix,
    VARIANTS,
    dense_cholesky,
    generate_cholesky_tasks,
)
from repro.linalg.cholesky import CholeskyResult
from repro.linalg.flops import cholesky_flops, cholesky_tile_counts
from repro.linalg.precision import Precision
from repro.obs import clear_trace, trace_records, tracing
from repro.runtime import Task, build_task_graph
from repro.util.compare import assert_states_bit_identical


class TestDenseReference:
    def test_matches_numpy(self, spd_matrix):
        ours = dense_cholesky(spd_matrix)
        ref = np.linalg.cholesky(spd_matrix)
        assert np.allclose(ours, ref)

    def test_jitter_recovers_rank_deficient(self):
        a = np.ones((5, 5))  # rank one, singular
        with pytest.raises(np.linalg.LinAlgError):
            dense_cholesky(a)
        l = dense_cholesky(a, jitter=1e-6)
        assert np.all(np.isfinite(l))


class TestTaskGeneration:
    def test_task_counts_match_formula(self, spd_matrix):
        tiled = TiledSymmetricMatrix.from_dense(spd_matrix, 16, "DP")
        tasks = generate_cholesky_tasks(tiled)
        counts = cholesky_tile_counts(tiled.n_tiles)
        by_kind = {}
        for t in tasks:
            by_kind[t.kind] = by_kind.get(t.kind, 0) + 1
        assert by_kind == counts

    def test_flops_sum_close_to_dense_count(self, spd_matrix):
        tiled = TiledSymmetricMatrix.from_dense(spd_matrix, 8, "DP")
        tasks = generate_cholesky_tasks(tiled)
        total = sum(t.flops for t in tasks)
        assert total == pytest.approx(cholesky_flops(64), rel=0.1)

    def test_dag_is_acyclic_with_expected_dependencies(self, spd_matrix):
        tiled = TiledSymmetricMatrix.from_dense(spd_matrix, 16, "DP")
        graph = build_task_graph(generate_cholesky_tasks(tiled))
        # First POTRF has no predecessors; last POTRF depends on earlier work.
        assert not graph.predecessors(graph.tasks[0])
        last_potrf = [t for t in graph.tasks if t.name == f"POTRF({tiled.n_tiles - 1})"][0]
        assert graph.predecessors(last_potrf)

    def test_precision_assignment_follows_policy(self, spd_matrix):
        tiled = TiledSymmetricMatrix.from_dense(spd_matrix, 8, "DP/HP")
        tasks = generate_cholesky_tasks(tiled)
        potrf = [t for t in tasks if t.kind == "POTRF"]
        gemm_far = [t for t in tasks if t.kind == "GEMM" and t.name == "GEMM(7,1,0)"]
        assert all(t.precision == "fp64" for t in potrf)
        assert gemm_far and gemm_far[0].precision == "fp16"

    def test_sender_conversion_counts_fewer_than_receiver(self, spd_matrix):
        tiled = TiledSymmetricMatrix.from_dense(spd_matrix, 8, "DP/HP")
        sender = sum(
            t.metadata.get("conversions", 0)
            for t in generate_cholesky_tasks(tiled, conversion="sender")
        )
        receiver = sum(
            t.metadata.get("conversions", 0)
            for t in generate_cholesky_tasks(tiled, conversion="receiver")
        )
        assert sender < receiver

    @pytest.mark.parametrize("side", ["sender", "receiver"])
    @pytest.mark.parametrize("tile_size", [8, 16, 24, 64])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_factorize_accounting_equals_task_list_sums(
        self, spd_matrix, variant, tile_size, side
    ):
        """factorize derives its accounting from tile indices; it must equal
        the sums over the task list the analytic models consume."""
        result = MixedPrecisionCholesky(tile_size, variant, conversion=side).factorize(
            spd_matrix
        )
        tiled = TiledSymmetricMatrix.from_dense(spd_matrix, tile_size, variant)
        tasks = generate_cholesky_tasks(tiled, conversion=side)
        flops: dict[str, float] = {}
        for t in tasks:
            flops[t.precision] = flops.get(t.precision, 0.0) + t.flops
        assert result.n_tasks == len(tasks)
        assert result.conversions == sum(t.metadata.get("conversions", 0) for t in tasks)
        assert result.flops_by_precision.keys() == flops.keys()
        for precision, total in flops.items():
            assert result.flops_by_precision[precision] == pytest.approx(total, rel=1e-12)
        assert result.total_flops == pytest.approx(sum(flops.values()), rel=1e-12)

    def test_factorize_builds_no_tasks_or_graph(self, spd_matrix, monkeypatch):
        """The factorisation is a direct tile loop: no Task, no DAG."""
        import repro.linalg.cholesky
        import repro.runtime
        import repro.runtime.dag

        def forbidden(*args, **kwargs):
            raise AssertionError("factorize built a task or a task graph")

        monkeypatch.setattr(Task, "__init__", forbidden)
        for module in (repro.runtime, repro.runtime.dag, repro.linalg.cholesky):
            monkeypatch.setattr(module, "build_task_graph", forbidden, raising=False)
        for variant in VARIANTS:
            result = MixedPrecisionCholesky(tile_size=16, variant=variant).factorize(spd_matrix)
            assert result.n_tasks == sum(cholesky_tile_counts(4).values())


class TestFactorizationAccuracy:
    def test_dp_matches_dense_reference(self, spd_matrix):
        result = MixedPrecisionCholesky(tile_size=16, variant="DP").factorize(spd_matrix)
        assert result.factor_error(dense_cholesky(spd_matrix)) < 1e-13
        assert result.relative_error(spd_matrix) < 1e-14

    @pytest.mark.parametrize("variant,tol", [("DP/SP", 1e-5), ("DP/SP/HP", 5e-2), ("DP/HP", 5e-2)])
    def test_reduced_precision_error_bounded(self, spd_matrix, variant, tol):
        result = MixedPrecisionCholesky(tile_size=16, variant=variant).factorize(spd_matrix)
        assert 0 < result.relative_error(spd_matrix) < tol

    def test_error_ordering_across_variants(self, spd_matrix):
        errors = {}
        for variant in VARIANTS:
            result = MixedPrecisionCholesky(tile_size=16, variant=variant).factorize(spd_matrix)
            errors[variant] = result.relative_error(spd_matrix)
        assert errors["DP"] < errors["DP/SP"] < errors["DP/HP"]

    def test_uneven_tile_sizes(self, spd_matrix):
        result = MixedPrecisionCholesky(tile_size=24, variant="DP").factorize(spd_matrix)
        assert result.relative_error(spd_matrix) < 1e-13

    def test_single_tile_matrix(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 16))
        spd = a @ a.T + 8 * np.eye(8)
        result = MixedPrecisionCholesky(tile_size=8, variant="DP").factorize(spd)
        assert result.relative_error(spd) < 1e-13
        assert result.n_tasks == 1

    def test_result_accounting(self, spd_matrix):
        result = MixedPrecisionCholesky(tile_size=16, variant="DP/HP").factorize(spd_matrix)
        assert result.total_flops == pytest.approx(sum(result.flops_by_precision.values()))
        assert result.storage_bytes < result.dense_bytes
        assert "fp16" in result.flops_by_precision
        assert result.variant == "DP/HP"

    def test_sampling_covariance(self, spd_matrix):
        result = MixedPrecisionCholesky(tile_size=16, variant="DP").factorize(spd_matrix)
        rng = np.random.default_rng(3)
        samples = result.sample(rng, size=4000)
        empirical = samples.T @ samples / samples.shape[0]
        rel = np.linalg.norm(empirical - spd_matrix) / np.linalg.norm(spd_matrix)
        assert rel < 0.15

    def test_jitter_handles_near_singular(self):
        n = 32
        u = np.ones((n, 1))
        nearly_singular = u @ u.T + 1e-10 * np.eye(n)
        solver = MixedPrecisionCholesky(tile_size=8, variant="DP", jitter=1e-6)
        result = solver.factorize(nearly_singular)
        assert np.all(np.isfinite(result.lower()))

    def test_invalid_tile_size(self):
        with pytest.raises(ValueError):
            MixedPrecisionCholesky(tile_size=0)

    def test_factorize_leaves_its_input_untouched(self, spd_matrix):
        # DP tiles are updated in place, so they must not alias the input.
        matrix = spd_matrix.copy()
        MixedPrecisionCholesky(tile_size=16, variant="DP").factorize(matrix)
        assert np.array_equal(matrix, spd_matrix)


class TestDenseFactorCache:
    """``lower()`` builds the dense factor once and hands out one
    read-only array; the tiles stay the serialised state."""

    #: The ``state_dict`` layout of artifact schema 2 (schema 1 stored
    #: one ``tiles`` entry per tile instead of ``tile_rows`` and
    #: ``tile_precisions``).
    STATE_KEYS = {
        "tile_rows", "tile_precisions", "n", "variant", "tile_size",
        "flops_by_precision", "total_flops", "storage_bytes", "dense_bytes",
        "conversions", "n_tasks",
    }

    @pytest.fixture()
    def result(self, spd_matrix):
        return MixedPrecisionCholesky(tile_size=16, variant="DP/SP").factorize(spd_matrix)

    def test_repeated_calls_return_the_same_array(self, result):
        assert result.lower() is result.lower()

    def test_cached_factor_is_read_only(self, result):
        lower = result.lower()
        assert not lower.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            lower[0, 0] = 1.0

    def test_cache_equals_a_fresh_reassembly_of_the_tiles(self, result):
        expected = np.tril(result.factor.to_dense(lower_only=True))
        assert np.array_equal(result.lower().view(np.uint64), expected.view(np.uint64))

    def test_state_dict_is_unchanged_by_the_cache(self, result):
        before = result.state_dict()
        result.lower()
        after = result.state_dict()
        assert set(before) == set(after) == self.STATE_KEYS
        assert_states_bit_identical(before, after)

    # Tile 24 leaves a ragged last tile row (64 % 24 == 16).
    @pytest.mark.parametrize("tile_size", [16, 24])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_from_state_round_trip_gives_the_same_factor_bits(
        self, spd_matrix, variant, tile_size
    ):
        original = MixedPrecisionCholesky(tile_size=tile_size, variant=variant).factorize(spd_matrix)
        state = original.state_dict()
        restored = CholeskyResult.from_state(state)
        assert np.array_equal(
            original.lower().view(np.uint64), restored.lower().view(np.uint64)
        )
        assert_states_bit_identical(state, restored.state_dict())

    def test_restored_tiles_are_views_into_their_row_arrays(self, result):
        state = result.state_dict()
        restored = CholeskyResult.from_state(state)
        for (i, _), tile in restored.factor.tiles.items():
            row = state["tile_rows"][str(i)][tile.precision.value]
            assert np.shares_memory(tile.data, row)

    def test_state_has_one_array_per_tile_row_and_precision(self, result):
        state = result.state_dict()
        n_tiles = result.factor.n_tiles
        assert set(state["tile_rows"]) == {str(i) for i in range(n_tiles)}
        assert state["tile_precisions"].dtype == np.uint8
        assert state["tile_precisions"].shape == (n_tiles * (n_tiles + 1) // 2,)
        for i, row in state["tile_rows"].items():
            for key, data in row.items():
                assert data.ndim == 1 and data.dtype == Precision(key).dtype

    def test_from_state_accepts_the_schema_1_tile_dict(self, result):
        state = result.state_dict()
        del state["tile_rows"], state["tile_precisions"]
        state["tiles"] = {
            f"{i}_{j}": tile.data for (i, j), tile in result.factor.tiles.items()
        }
        restored = CholeskyResult.from_state(state)
        assert np.array_equal(
            result.lower().view(np.uint64), restored.lower().view(np.uint64)
        )
        assert_states_bit_identical(result.state_dict(), restored.state_dict())

    @pytest.mark.parametrize("corrupt", ["short-row", "long-row", "codes", "dtype"])
    def test_from_state_rejects_a_malformed_packing(self, result, corrupt):
        state = result.state_dict()
        row = state["tile_rows"]["1"]
        if corrupt == "short-row":
            row["fp64"] = row["fp64"][:-1]
        elif corrupt == "long-row":
            row["fp64"] = np.concatenate([row["fp64"], [0.0]])
        elif corrupt == "codes":
            state["tile_precisions"] = state["tile_precisions"][:-1]
        else:
            row["fp64"] = row["fp64"].astype(np.float32)
        with pytest.raises(ValueError):
            CholeskyResult.from_state(state)

    def test_concurrent_first_calls_agree_bit_for_bit(self, result):
        fresh = CholeskyResult.from_state(result.state_dict())
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        factors = [None] * n_threads

        def first_call(index):
            barrier.wait()
            factors[index] = fresh.lower()

        threads = [threading.Thread(target=first_call, args=(i,)) for i in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        clear_trace()
        try:
            with tracing():
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
            names = [record["name"] for record in trace_records()]
        finally:
            sys.setswitchinterval(interval)
            clear_trace()
        assert not any(thread.is_alive() for thread in threads)
        # The per-result lock lets exactly one racing thread build the factor.
        assert names.count("cholesky.materialize") == 1
        expected = result.lower().view(np.uint64)
        for factor in factors:
            assert not factor.flags.writeable
            assert np.array_equal(factor.view(np.uint64), expected)
        assert any(factor is fresh.lower() for factor in factors)
