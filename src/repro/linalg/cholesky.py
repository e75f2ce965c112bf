"""Tile-based mixed-precision Cholesky factorisation.

This is the numerical heart of the emulator's HPC layer: the covariance
matrix of the spectral innovations is tiled, each tile is assigned a storage
precision by a :class:`~repro.linalg.policies.PrecisionPolicy`, and
:meth:`MixedPrecisionCholesky.factorize` runs the right-looking tile
Cholesky as a direct loop over the tiles: for each panel ``k``, POTRF on the
diagonal tile, TRSM down the panel, then SYRK / GEMM on the trailing tiles.
Kernels accumulate in double precision but read and write tiles at their
storage precision, so the reduced-precision variants genuinely lose the
corresponding mantissa bits — the accuracy ablations (paper Fig. 4) measure
exactly that loss.

The same algorithm as a task list, :func:`generate_cholesky_tasks`, is the
analytic model the performance figures and the tuner consume: it carries
per-task flops, compute precision and communication metadata (who
broadcasts which tile to how many consumers, and where precision
conversions happen under the sender- versus receiver-side strategies of
Section V-A), but no kernels.  The factorisation's own flop and conversion
accounting is computed from tile indices and equals the sums over that
task list.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cholesky as scipy_cholesky
from scipy.linalg import solve_triangular

from repro.linalg.flops import (
    cholesky_tile_counts,
    gemm_flops,
    potrf_flops,
    syrk_flops,
    trsm_flops,
)
from repro.linalg.policies import PrecisionPolicy, variant_policy
from repro.linalg.precision import PRECISIONS, Precision
from repro.linalg.tile import Tile
from repro.linalg.tiled_matrix import TiledSymmetricMatrix
from repro.obs import span
from repro.runtime.machine import ConversionSide
from repro.runtime.task import Task

__all__ = [
    "dense_cholesky",
    "generate_cholesky_tasks",
    "CholeskyResult",
    "MixedPrecisionCholesky",
]


def dense_cholesky(matrix: np.ndarray, jitter: float = 0.0) -> np.ndarray:
    """Dense double-precision lower Cholesky factor (reference algorithm).

    ``jitter`` adds a relative ridge ``jitter * mean(diag)`` to the diagonal
    before factorising, the same safeguard the paper applies when the
    empirical covariance is rank-deficient (``R (T - P) < L^2``).
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if jitter > 0:
        matrix = matrix + np.eye(matrix.shape[0]) * jitter * float(np.mean(np.diag(matrix)))
    return scipy_cholesky(matrix, lower=True)


# --------------------------------------------------------------------------- #
# Tile kernels and the factorisation loop
# --------------------------------------------------------------------------- #
def _promote(tile: Tile) -> np.ndarray:
    """The tile's values in float64: the tile's own array when already fp64."""
    return tile.data if tile.precision is Precision.DOUBLE else tile.as_float64()


def _potrf(a: np.ndarray, k: int, jitter: float) -> np.ndarray:
    """Lower Cholesky factor of diagonal tile ``k``."""
    a = 0.5 * (a + a.T)
    if jitter > 0:
        a = a + np.eye(a.shape[0]) * jitter * float(np.mean(np.diag(a)))
    scale = float(np.mean(np.abs(np.diag(a)))) or 1.0
    # Reduced-precision updates can push a trailing diagonal block
    # slightly indefinite; retry with an escalating ridge (the paper's
    # "minor perturbation along the diagonal" safeguard).
    for ridge in (0.0, 1e-8, 1e-6, 1e-4, 1e-2):
        try:
            l = scipy_cholesky(a + np.eye(a.shape[0]) * ridge * scale, lower=True)
            break
        except np.linalg.LinAlgError:
            continue
    else:  # pragma: no cover - docs/architecture.md, "Known limitation"
        raise np.linalg.LinAlgError(
            f"diagonal tile {k} is not positive definite even with a 1e-2 ridge"
        )
    return np.tril(l)


def _factorize_tiles(tiled: TiledSymmetricMatrix, jitter: float) -> None:
    """Overwrite the tiles of ``tiled`` with its lower Cholesky factor.

    Right-looking: panel ``k`` is factorised (POTRF, then a TRSM per tile
    below it) and its tiles update the trailing lower triangle (SYRK on the
    diagonal, GEMM below it).  fp64 tiles are updated in place; others are
    promoted, updated in float64 and rounded back to their precision.
    """
    tiles = tiled.tiles
    nt = tiled.n_tiles
    for k in range(nt):
        diag = tiles[(k, k)]
        diag.set_from_float64(_potrf(_promote(diag), k, jitter))
        l_kk = np.tril(_promote(diag))
        panel = []
        for i in range(k + 1, nt):
            tile = tiles[(i, k)]
            # Solve X * L_kk^T = A_ik  =>  X = A_ik * L_kk^{-T}
            tile.set_from_float64(
                solve_triangular(l_kk, _promote(tile).T, lower=True, trans="N").T
            )
            panel.append(_promote(tile))
        for i, p_i in enumerate(panel, start=k + 1):
            # Tiles (i, k+1..i) pair with panel tiles k+1..i; the last pair
            # is ``p_i @ p_i.T``, numpy's SYRK path.
            for j, p_j in enumerate(panel[: i - k], start=k + 1):
                tile = tiles[(i, j)]
                if tile.precision is Precision.DOUBLE:
                    tile.data -= p_i @ p_j.T
                else:
                    tile.set_from_float64(tile.as_float64() - p_i @ p_j.T)


# --------------------------------------------------------------------------- #
# Task generation
# --------------------------------------------------------------------------- #
def generate_cholesky_tasks(
    tiled: TiledSymmetricMatrix,
    label: str = "A",
    conversion: ConversionSide | str = ConversionSide.SENDER,
) -> list[Task]:
    """Generate the right-looking tile Cholesky task list for ``tiled``.

    The tasks describe the loop :meth:`MixedPrecisionCholesky.factorize`
    runs, for the analytic models: per-kernel flop counts, the compute
    precision taken from the output tile's storage precision, and
    communication metadata (broadcast fan-out and conversion counts under
    the chosen conversion side).  They carry no kernels.
    """
    side = ConversionSide(conversion)
    nt = tiled.n_tiles
    nb = tiled.tile_size
    tasks: list[Task] = []

    def tile_precision(i: int, j: int) -> Precision:
        return tiled.tiles[(i, j)].precision

    for k in range(nt):
        panel_priority = 2 * (nt - k)
        # POTRF on the diagonal tile.
        consumers = [tile_precision(i, k) for i in range(k + 1, nt)]
        conversions = _conversion_count(tile_precision(k, k), Counter(consumers), side)
        tasks.append(
            Task(
                name=f"POTRF({k})",
                kind="POTRF",
                reads=(),
                writes=((label, k, k),),
                flops=potrf_flops(tiled.tile_rows(k)),
                precision=tile_precision(k, k).value,
                priority=panel_priority + 1,
                metadata={
                    "panel": k,
                    "broadcast_fanout": len(consumers),
                    "conversions": conversions,
                },
            )
        )
        for i in range(k + 1, nt):
            # TRSM: panel update of tile (i, k); consumed by GEMM/SYRK tasks.
            gemm_consumers = [tile_precision(i, j) for j in range(k + 1, i)]
            gemm_consumers += [tile_precision(r, i) for r in range(i + 1, nt)]
            gemm_consumers += [tile_precision(i, i)]
            conversions = _conversion_count(
                tile_precision(i, k), Counter(gemm_consumers), side
            )
            tasks.append(
                Task(
                    name=f"TRSM({i},{k})",
                    kind="TRSM",
                    reads=((label, k, k),),
                    writes=((label, i, k),),
                    flops=trsm_flops(nb) * (tiled.tile_rows(i) / nb),
                    precision=tile_precision(i, k).value,
                    priority=panel_priority,
                    metadata={
                        "panel": k,
                        "broadcast_fanout": len(gemm_consumers),
                        "conversions": conversions,
                    },
                )
            )
        for i in range(k + 1, nt):
            tasks.append(
                Task(
                    name=f"SYRK({i},{k})",
                    kind="SYRK",
                    reads=((label, i, k),),
                    writes=((label, i, i),),
                    flops=syrk_flops(tiled.tile_rows(i)),
                    precision=tile_precision(i, i).value,
                    priority=panel_priority - 1,
                    metadata={"panel": k},
                )
            )
            for j in range(k + 1, i):
                tasks.append(
                    Task(
                        name=f"GEMM({i},{j},{k})",
                        kind="GEMM",
                        reads=((label, i, k), (label, j, k)),
                        writes=((label, i, j),),
                        flops=gemm_flops(nb)
                        * (tiled.tile_rows(i) / nb)
                        * (tiled.tile_rows(j) / nb),
                        precision=tile_precision(i, j).value,
                        priority=panel_priority - 2,
                        metadata={"panel": k},
                    )
                )
    return tasks


def _conversion_count(
    source: Precision, consumers: Counter, side: ConversionSide
) -> int:
    """Number of precision conversions implied by a broadcast.

    ``consumers`` counts the receiving tiles per storage precision.
    """
    needing = [n for p, n in consumers.items() if n and p != source]
    if side is ConversionSide.SENDER:
        # one conversion per distinct target precision at the producer
        return len(needing)
    return sum(needing)


def _accounting(
    tiled: TiledSymmetricMatrix, side: ConversionSide
) -> tuple[dict[str, float], int]:
    """Flops per compute precision and conversion count of the task list.

    The sums over :func:`generate_cholesky_tasks` (the flops up to
    summation order), derived from tile indices in ``O(n_tiles**2)``
    without building the list.
    """
    nt, nb = tiled.n_tiles, tiled.tile_size
    prec = {key: tile.precision for key, tile in tiled.tiles.items()}
    flops = dict.fromkeys(PRECISIONS, 0.0)
    conversions = 0
    for i in range(nt):
        rows = tiled.tile_rows(i)
        # Tile (i, i) is written by POTRF(i) and by SYRK(i, k) for k < i.
        flops[prec[i, i]] += potrf_flops(rows) + i * syrk_flops(rows)
        for j in range(i):
            # Tile (i, j) is written by TRSM(i, j) and by GEMM(i, j, k) for k < j.
            flops[prec[i, j]] += trsm_flops(nb) * (rows / nb) + j * (
                gemm_flops(nb) * (rows / nb) * (tiled.tile_rows(j) / nb)
            )
        # POTRF(i) broadcasts to the tiles below it in column i.
        consumers = Counter(prec[r, i] for r in range(i + 1, nt))
        conversions += _conversion_count(prec[i, i], consumers, side)
        # TRSM(i, k) broadcasts to tiles (i, k+1..i) and (i+1.., i): walking k
        # down from i - 1 adds one tile of row i per step.
        consumers[prec[i, i]] += 1
        for k in range(i - 1, -1, -1):
            conversions += _conversion_count(prec[i, k], consumers, side)
            consumers[prec[i, k]] += 1
    return {p.value: f for p, f in flops.items() if f}, conversions


# --------------------------------------------------------------------------- #
# Results and the driver
# --------------------------------------------------------------------------- #
#: On-disk code of each tile's storage precision: its index in
#: :data:`~repro.linalg.precision.PRECISIONS`.  Part of the artifact schema.
_PRECISION_CODES = {precision: code for code, precision in enumerate(PRECISIONS)}


@dataclass
class CholeskyResult:
    """Outcome of a mixed-precision factorisation.

    The tiles of :attr:`factor` are the result's state; the dense float64
    factor :meth:`lower` returns is derived from them on first use and
    cached, which assumes the factor is never modified after the fit.
    """

    factor: TiledSymmetricMatrix
    variant: str
    tile_size: int
    flops_by_precision: dict[str, float]
    total_flops: float
    storage_bytes: int
    dense_bytes: int
    conversions: int
    n_tasks: int
    _lower: "np.ndarray | None" = field(
        default=None, init=False, repr=False, compare=False
    )
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def lower(self) -> np.ndarray:
        """Dense lower-triangular factor in float64 (read-only, cached).

        Built from the tiles on the first call, which costs ``O(n**2)``
        memory and time; later calls return the same array.  Threads
        racing on the first call wait on a per-result lock while one of
        them builds it, so the factor is built once per result.
        """
        lower = self._lower
        if lower is None:
            with self._lock:
                lower = self._lower
                if lower is None:
                    with span("cholesky.materialize", n=self.factor.n):
                        lower = np.tril(self.factor.to_dense(lower_only=True))
                    lower.setflags(write=False)
                    self._lower = lower
        return lower

    def reconstruction(self) -> np.ndarray:
        """``L @ L.T`` of the computed factor."""
        l = self.lower()
        return l @ l.T

    def relative_error(self, matrix: np.ndarray) -> float:
        """``||L L^T - A||_F / ||A||_F`` against the original matrix."""
        a = np.asarray(matrix, dtype=np.float64)
        return float(np.linalg.norm(self.reconstruction() - a, "fro") / np.linalg.norm(a, "fro"))

    def factor_error(self, reference_lower: np.ndarray) -> float:
        """Relative Frobenius error of the factor against a DP reference."""
        ref = np.asarray(reference_lower, dtype=np.float64)
        return float(np.linalg.norm(self.lower() - ref, "fro") / np.linalg.norm(ref, "fro"))

    def sample(self, rng: np.random.Generator, size: int | tuple[int, ...] = 1) -> np.ndarray:
        """Draw ``N(0, L L^T)`` samples using the computed factor."""
        n = self.factor.n
        shape = (size,) if isinstance(size, int) else tuple(size)
        z = rng.standard_normal(shape + (n,))
        return z @ self.lower().T

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict:
        """Arrays and metadata from which :meth:`from_state` rebuilds the result.

        Each lower-triangle tile is stored *at its native precision* (fp64 /
        fp32 / fp16 all serialise losslessly to NPZ), so the round trip is
        bit-exact and the on-disk artifact genuinely reflects the
        mixed-precision storage savings rather than re-inflating every tile
        to float64.

        The tiles are packed per tile row: ``tile_rows[str(i)][p]`` is the
        ravelled tiles ``(i, 0..i)`` of storage precision ``p`` (``"fp64"``,
        ``"fp32"`` or ``"fp16"``) concatenated in column order, and
        ``tile_precisions`` holds one ``uint8`` precision code per tile in
        row-major lower-triangle order.  Tile shapes follow from ``n`` and
        ``tile_size``.  One array per row rather than per tile keeps an
        artifact to a few members; one per row rather than per factor keeps
        each buffer small.
        """
        factor = self.factor
        n_tiles = factor.n_tiles
        codes = np.empty(n_tiles * (n_tiles + 1) // 2, dtype=np.uint8)
        tile_rows: dict[str, dict[str, np.ndarray]] = {}
        index = 0
        for i in range(n_tiles):
            parts: dict[Precision, list[np.ndarray]] = {}
            for j in range(i + 1):
                tile = factor.tiles[(i, j)]
                codes[index] = _PRECISION_CODES[tile.precision]
                index += 1
                parts.setdefault(tile.precision, []).append(tile.data.ravel())
            tile_rows[str(i)] = {
                precision.value: np.concatenate(arrays)
                for precision, arrays in parts.items()
            }
        return {
            "tile_rows": tile_rows,
            "tile_precisions": codes,
            "n": int(factor.n),
            "variant": str(self.variant),
            "tile_size": int(self.tile_size),
            "flops_by_precision": {k: float(v) for k, v in self.flops_by_precision.items()},
            "total_flops": float(self.total_flops),
            "storage_bytes": int(self.storage_bytes),
            "dense_bytes": int(self.dense_bytes),
            "conversions": int(self.conversions),
            "n_tasks": int(self.n_tasks),
        }

    @classmethod
    def from_state(cls, state: dict) -> "CholeskyResult":
        """Rebuild a factorisation result from :meth:`state_dict` output.

        Each tile is a view into its row array, not a copy.  The older
        layout of one ``tiles["i_j"]`` array per tile (schema-1 artifacts)
        is read too.
        """
        n, tile_size = int(state["n"]), int(state["tile_size"])
        if "tiles" in state:
            tiles = _tiles_from_dict(state["tiles"])
        else:
            tiles = _tiles_from_rows(
                state["tile_rows"], state["tile_precisions"], n, tile_size
            )
        factor = TiledSymmetricMatrix(n=n, tile_size=tile_size, tiles=tiles)
        return cls(
            factor=factor,
            variant=str(state["variant"]),
            tile_size=tile_size,
            flops_by_precision={str(k): float(v) for k, v in state["flops_by_precision"].items()},
            total_flops=float(state["total_flops"]),
            storage_bytes=int(state["storage_bytes"]),
            dense_bytes=int(state["dense_bytes"]),
            conversions=int(state["conversions"]),
            n_tasks=int(state["n_tasks"]),
        )


def _tiles_from_rows(
    tile_rows: dict, codes, n: int, tile_size: int
) -> dict[tuple[int, int], Tile]:
    """Tiles as views into the per-row arrays of :meth:`CholeskyResult.state_dict`."""
    n_tiles = -(-n // tile_size)
    codes = np.asarray(codes)
    if codes.shape != (n_tiles * (n_tiles + 1) // 2,) or np.any(codes >= len(PRECISIONS)):
        raise ValueError(
            f"tile_precisions must hold one code < {len(PRECISIONS)} per tile "
            f"of a {n_tiles}x{n_tiles} tile grid, got shape {codes.shape}"
        )
    precisions = [PRECISIONS[code] for code in codes.tolist()]
    tiles: dict[tuple[int, int], Tile] = {}
    index = 0
    for i in range(n_tiles):
        row = {key: np.asarray(data) for key, data in tile_rows[str(i)].items()}
        used = dict.fromkeys(row, 0)
        height = min(tile_size, n - i * tile_size)
        for j in range(i + 1):
            precision = precisions[index]
            index += 1
            buffer = row.get(precision.value)
            if buffer is None or buffer.dtype != precision.dtype:
                raise ValueError(
                    f"tile row {i} lacks a {precision.value} array of dtype {precision.dtype}"
                )
            start = used[precision.value]
            width = min(tile_size, n - j * tile_size)
            used[precision.value] = start + height * width
            tiles[(i, j)] = Tile(
                data=buffer[start:start + height * width].reshape(height, width),
                precision=precision,
            )
        for key, data in row.items():
            if used[key] != data.size:
                raise ValueError(
                    f"tile row {i} {key} array holds {data.size} values, "
                    f"its tiles {used[key]}"
                )
    return tiles


def _tiles_from_dict(tile_arrays: dict) -> dict[tuple[int, int], Tile]:
    """Tiles from the schema-1 layout: one ``"i_j"`` array per tile."""
    dtype_to_precision = {p.dtype: p for p in PRECISIONS}
    tiles: dict[tuple[int, int], Tile] = {}
    for key, data in tile_arrays.items():
        i, j = (int(part) for part in key.split("_"))
        data = np.asarray(data)
        precision = dtype_to_precision.get(data.dtype)
        if precision is None:
            raise ValueError(f"tile ({i}, {j}) has unsupported dtype {data.dtype}")
        tiles[(i, j)] = Tile(data=data, precision=precision)
    return tiles


class MixedPrecisionCholesky:
    """High-level mixed-precision Cholesky driver.

    Parameters
    ----------
    tile_size:
        Tile edge length.
    variant:
        One of ``"DP"``, ``"DP/SP"``, ``"DP/SP/HP"``, ``"DP/HP"`` or a
        custom :class:`PrecisionPolicy`.
    conversion:
        ``"sender"`` or ``"receiver"`` precision-conversion placement.
    jitter:
        Relative diagonal ridge applied inside POTRF kernels (stabilises the
        aggressive half-precision variants and rank-deficient covariances).
    """

    def __init__(
        self,
        tile_size: int,
        variant: str | PrecisionPolicy = "DP",
        conversion: ConversionSide | str = ConversionSide.SENDER,
        jitter: float = 0.0,
    ) -> None:
        if tile_size < 1:
            raise ValueError("tile_size must be positive")
        self.tile_size = tile_size
        self.policy = variant if isinstance(variant, PrecisionPolicy) else variant_policy(variant)
        self.conversion = ConversionSide(conversion)
        self.jitter = jitter

    def factorize(self, matrix: np.ndarray) -> CholeskyResult:
        """Factorise ``matrix`` and return the result with accounting."""
        matrix = np.asarray(matrix, dtype=np.float64)
        factor = TiledSymmetricMatrix.from_dense(matrix, self.tile_size, self.policy)
        flops_by_precision, conversions = _accounting(factor, self.conversion)
        _factorize_tiles(factor, self.jitter)
        return CholeskyResult(
            factor=factor,
            variant=self.policy.name,
            tile_size=self.tile_size,
            flops_by_precision=flops_by_precision,
            total_flops=sum(flops_by_precision.values()),
            storage_bytes=factor.storage_bytes(),
            dense_bytes=matrix.shape[0] * matrix.shape[0] * 8,
            conversions=conversions,
            n_tasks=sum(cholesky_tile_counts(factor.n_tiles).values()),
        )
