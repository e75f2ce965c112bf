"""Which public callables the traced run wraps, and the per-layer metrics.

Each entry of :data:`LAYERS` names a layer metric prefix; the traced run
reports ``<name>.calls`` and ``<name>.self_s`` for it.  The layers are the
repository's own modules: ``repro.api``, ``repro.core`` (emulator, trend,
scale, VAR, spectral model, generator), ``repro.linalg.cholesky``,
``repro.sht`` (transform, real-form packing, plan cache),
``repro.serving``, ``repro.storage.chunkstore``, ``repro.scenarios.campaign``
and ``repro.data``.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from statistics import median

import repro
import repro.core.spectral_model as spectral_model
import repro.scenarios.campaign as campaign
from repro.api.artifact import EmulatorArtifact
from repro.core.emulator import ClimateEmulator
from repro.core.generator import EmulationGenerator
from repro.core.scale import ScaleField
from repro.core.spectral_model import SpectralStochasticModel
from repro.core.trend import MeanTrendModel
from repro.core.var import DiagonalVAR
from repro.data.ensemble import ClimateEnsemble
from repro.data.era5_like import Era5LikeGenerator
from repro.linalg.cholesky import CholeskyResult, MixedPrecisionCholesky
from repro.linalg.flops import cholesky_flops
from repro.serving.service import EmulationService
from repro.sht.plancache import plan_cache_key, plan_cache_stats
from repro.sht.transform import SHTPlan
from repro.storage.chunkstore import ChunkStore

#: ``(metric prefix, owner, attribute, mode)``; ``mode="iter"`` times each
#: ``next()`` of the returned iterator.  Functions are patched in the
#: module that imported them, methods on their class.
TARGETS = (
    ("api.load", EmulatorArtifact, "load", "call"),
    ("core.emulator.fit", ClimateEmulator, "fit", "call"),
    ("core.trend.fit", MeanTrendModel, "fit", "call"),
    ("core.trend.predict", MeanTrendModel, "predict", "call"),
    ("core.scale.unstandardize", ScaleField, "unstandardize", "call"),
    ("core.spectral.fit", SpectralStochasticModel, "fit", "call"),
    ("core.spectral.draw", SpectralStochasticModel, "generate_standardized_stream", "iter"),
    ("core.spectral.draw", SpectralStochasticModel, "generate_standardized_stream_multi", "iter"),
    ("core.var.fit", DiagonalVAR, "fit", "call"),
    ("core.var.simulate", DiagonalVAR, "simulate", "call"),
    ("core.generator.restore", EmulationGenerator, "generate_stream", "iter"),
    ("core.generator.restore", EmulationGenerator, "generate_stream_multi", "iter"),
    ("linalg.cholesky.lower", CholeskyResult, "lower", "call"),
    ("sht.pack", spectral_model, "complex_from_real", "call"),
    ("sht.pack", spectral_model, "real_from_complex", "call"),
    ("sht.forward", SHTPlan, "forward", "call"),
    ("sht.inverse", SHTPlan, "inverse", "call"),
    ("sht.contraction_inverse", SHTPlan, "wigner_contraction_inverse", "call"),
    ("sht.fft_inverse", SHTPlan, "synthesis_from_fourier", "call"),
    ("storage.put_many", ChunkStore, "put_many", "call"),
    ("storage.get", ChunkStore, "get", "call"),
    ("serving.get", EmulationService, "get", "call"),
    ("scenarios.campaign", repro, "run_campaign", "call"),
    ("data.generate", Era5LikeGenerator, "generate", "call"),
    ("data.global_mean", ClimateEnsemble, "global_mean_series", "call"),
)

#: Layer prefixes reported as ``.calls`` and ``.self_s``, in report order:
#: every wrapped callable's, and the factorisation :func:`install` times.
LAYERS = (*dict.fromkeys(name for name, *_ in TARGETS), "linalg.cholesky.factorize")

#: Per-layer metrics beyond calls/self_s: name -> (unit, better).
EXTRAS = {
    "linalg.cholesky.gflops": ("GFLOP/s", "higher"),
    "sht.plan.build_s": ("s", "lower"),
    "sht.plan.hits": ("count", "higher"),
    "sht.plan.misses": ("count", "lower"),
    "storage.bytes_written": ("B", "lower"),
    "serving.request_hit_ratio": ("ratio", "higher"),
    "serving.flights": ("count", "lower"),
    "serving.coalesced_waits": ("count", "lower"),
    "serving.store_chunk_hits": ("count", "higher"),
    "loadgen.lag_ms.max": ("ms", "lower"),
    "loadgen.backlog.max": ("count", "lower"),
    "wait.pool_s": ("s", "lower"),
    "unattributed_s": ("s", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``."""
    specs = []
    for layer in LAYERS:
        specs.append((f"{layer}.calls", "count", "lower"))
        specs.append((f"{layer}.self_s", "s", "lower"))
    specs.extend((name, unit, better) for name, (unit, better) in EXTRAS.items())
    return specs


def install(tracer) -> None:
    """Patch every layer callable; :meth:`Tracer.uninstall` restores them."""
    tracer.install(TARGETS)

    factorize = MixedPrecisionCholesky.factorize

    def traced_factorize(self, matrix):
        with tracer.span("linalg.cholesky.factorize", "layer"):
            result = factorize(self, matrix)
        tracer.counts["cholesky_flops"] += cholesky_flops(len(matrix))
        return result

    tracer.replace(MixedPrecisionCholesky, "factorize", traced_factorize)

    get_plan = spectral_model.get_plan

    def traced_get_plan(*args, **kwargs):
        # A miss builds the plan: it is timed under its own name.
        hit = plan_cache_key(*args, **kwargs) in plan_cache_stats()["keys"]
        with tracer.span("sht.plan" if hit else "sht.plan.build", "layer"):
            return get_plan(*args, **kwargs)

    tracer.replace(spectral_model, "get_plan", traced_get_plan)

    class TracedPool(ThreadPoolExecutor):
        """The campaign's pool: each block is a root on its worker thread,
        and the coordinator's draining of results is a wait."""

        def map(self, fn, *iterables, **kwargs):
            results = super().map(tracer.rooted(fn, "task"), *iterables, **kwargs)
            return tracer.timed_iter(results, "wait.pool", kind="wait")

    tracer.replace(campaign, "ThreadPoolExecutor", TracedPool)


def per_layer(tracer, traced, untraced) -> dict:
    """Per-layer metric values from a traced phase and its untraced twin."""
    calls, self_s = tracer.calls, tracer.self_s
    values = {}
    for layer in LAYERS:
        values[f"{layer}.calls"] = calls.get(layer, 0)
        values[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    factorize_s = self_s.get("linalg.cholesky.factorize", 0.0)
    counters = untraced.counters
    values.update({
        "linalg.cholesky.gflops": (
            tracer.counts["cholesky_flops"] / factorize_s / 1e9 if factorize_s else 0.0),
        "sht.plan.build_s": self_s.get("sht.plan.build", 0.0),
        "sht.plan.hits": calls.get("sht.plan", 0),
        "sht.plan.misses": calls.get("sht.plan.build", 0),
        "storage.bytes_written": traced.counters.get("bytes_written", 0),
        "serving.request_hit_ratio": traced.counters.get("request_hit_ratio", 0.0),
        "serving.flights": traced.counters.get("flights", 0),
        "serving.coalesced_waits": traced.counters.get("coalesced_waits", 0),
        "serving.store_chunk_hits": traced.counters.get("store_chunk_hits", 0),
        "loadgen.lag_ms.max": counters.get("lag_ms_max", 0.0),
        "loadgen.backlog.max": counters.get("backlog_max", 0),
        "wait.pool_s": tracer.total("wait"),
        "unattributed_s": tracer.total("root"),
        # Medians: one slow outlier request would swamp a mean.
        "trace.overhead_frac": median(traced.ops) / median(untraced.ops) - 1.0,
    })
    return values
