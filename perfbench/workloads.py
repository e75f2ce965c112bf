"""The three benchmark workloads, their inputs and their correctness checks.

Every workload drives public entry points of ``repro`` at lmax=48 and
returns a :class:`Phase`: per-operation latencies and the failures counted
against the operations attempted.  A phase may run with a :class:`~tracer.Tracer`
installed; then the layer wrappers are live and the benchmark's own units
of work are recorded as root spans.

Correctness is checked against references computed in the same process
from the same commit, never against stored bits:

* ``fit-l48``: every repeat's fitted state is bit-identical to the first,
  and the Cholesky factor reconstructs the covariance as closely as
  ``numpy.linalg.cholesky`` does, up to the ridge the tiled factorisation
  adds by design;
* ``campaign-l48``: a seeded sample of stored chunks equals the serial
  ``emulate_stream`` of the same realization;
* ``serve-l48``: every response equals the canonical year-chunked stream.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import resource
import shutil
import tempfile
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

import repro
from repro.util.compare import assert_states_bit_identical

LMAX = 48
#: The training ensemble: 2 members x 6 years x 24 steps/year on 49 x 95.
TRAINING = dict(lmax=LMAX, n_years=6, steps_per_year=24, n_ensemble=2)
#: Seed of the fixed training archive the campaign and serving artifact is
#: fitted on.  The workload seed varies what is emulated and requested.
ARCHIVE_SEED = 2024
SCENARIOS = ("ssp-low", "ssp-medium", "ssp-high")

#: A time-bounded loop still makes at least this many operations.
MIN_OPS = 3

CAMPAIGN_REALIZATIONS = 4
CAMPAIGN_BATCH = 2
CAMPAIGN_SAMPLES = 3

SERVE_REPLICAS = 2
SERVE_RATE = 30.0          # offered requests per second
SERVE_MIN_REQUESTS = 200   # p95 keeps 10 samples beyond it
SERVE_COLD_SHARE = 0.1
SERVE_MAX_YEAR = 6
SERVE_HOT_AGE_S = 0.5      # repeats target chunks requested this long ago
SERVE_MULTI_YEAR = 0.3
SERVE_WINDOWED = 0.3


@dataclass
class Phase:
    """What one pass of a workload measured."""

    ops: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    classes: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    #: Peak resident memory read right after the last timed operation,
    #: before the checks that follow it.
    peak_rss_mb: float = 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)


@dataclass
class Context:
    seed: int
    seconds: float
    work: str
    workers: int
    artifact: "str | None" = None


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def training_ensemble(seed: int):
    config = repro.Era5LikeConfig(**TRAINING)
    return repro.Era5LikeGenerator(config, seed=seed).generate()


# What each workload does before its first operation.  ``run.py`` times
# these in fresh processes (``fresh_setup.py``) for ``setup_s``; the
# workloads below repeat them, untimed, for their own use.
def setup_fit(ctx: Context):
    return training_ensemble(ctx.seed)


def setup_campaign(ctx: Context):
    return repro.ChunkStore(tempfile.mkdtemp(prefix="campaign-store-", dir=ctx.work))


def setup_serve(ctx: Context):
    root = tempfile.mkdtemp(prefix="serve-store-", dir=ctx.work)
    replicas = [repro.serve(ctx.artifact, seed=ctx.seed, store=root)
                for _ in range(SERVE_REPLICAS)]
    return replicas, root


SETUPS = {"fit-l48": setup_fit, "campaign-l48": setup_campaign, "serve-l48": setup_serve}


def _setup_span(tracer):
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span("setup", "setup")


def _untraced(tracer):
    return contextlib.nullcontext() if tracer is None else tracer.suspended()


def _op_span(tracer, name="op", rid=None):
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(name, "root", rid=rid)


def _canonical_stream(emulator, scenario, seed, realization, n_years):
    """Year chunks of the canonical stream of one realization."""
    spy = emulator.training_summary.steps_per_year
    rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(realization,))
    )
    stream = emulator.emulate_stream(
        n_realizations=1, n_times=n_years * spy, annual_forcing=scenario,
        rng=rng, chunk_size=spy,
    )
    return [np.ascontiguousarray(chunk.data[0]) for chunk in stream]


# --------------------------------------------------------------------------- #
# fit-l48
# --------------------------------------------------------------------------- #
def run_fit(ctx: Context, tracer=None) -> Phase:
    """Repeated ``repro.fit`` of one seeded training ensemble."""
    phase = Phase()
    with _setup_span(tracer):
        sims = setup_fit(ctx)
    first = None
    emulator = None
    begin = time.perf_counter()
    while phase.attempted < MIN_OPS or time.perf_counter() - begin < ctx.seconds:
        emulator = None  # the previous fit is released before the next
        phase.attempted += 1
        try:
            with _op_span(tracer):
                start = time.perf_counter()
                emulator = repro.fit(sims, lmax=LMAX)
                phase.ops.append(time.perf_counter() - start)
        except Exception as exc:  # a failed operation is counted, not fatal
            phase.fail(f"fit raised {exc!r}")
            continue
        with _untraced(tracer):
            digest = _state_digest(emulator.state_dict())
            if first is None:
                first = digest
            else:
                message = _check_repeat(first, digest)
                if message:
                    phase.fail(message)
    phase.peak_rss_mb = peak_rss_mb()
    # The last fit is bit-identical to the first, or a failure is counted.
    if emulator is not None:
        with _untraced(tracer):
            message = _check_factor(emulator)
        if message:
            phase.fail(message)
    return phase


def _state_digest(state):
    """The state tree with every array replaced by a hash of its bits.

    Holding hashes rather than the first fit's arrays keeps the reference
    out of the workload's peak memory.
    """
    if isinstance(state, dict):
        return {key: _state_digest(value) for key, value in state.items()}
    if isinstance(state, np.ndarray):
        bits = hashlib.blake2b(np.ascontiguousarray(state)).hexdigest()
        return f"{state.dtype.str}{state.shape}:{bits}"
    return state


def _check_repeat(first, digest) -> "str | None":
    try:
        assert_states_bit_identical(first, digest)
    except AssertionError as exc:
        return f"fit repeat differs from the first: {exc}"
    return None


def _check_factor(emulator) -> "str | None":
    """Compare the tiled factor with ``numpy.linalg.cholesky``.

    The tiled POTRF adds a relative ridge of ``covariance_jitter`` to each
    diagonal tile, and the covariance is rank-deficient (fewer innovation
    samples than coefficients), so the two factors differ entry-wise by far
    more than rounding.  Both must reproduce the covariance: the
    reconstructions ``L L^T`` agree within ten ridges.
    """
    model = emulator.spectral_model
    cov = model.covariance
    lower = model.cholesky.lower()
    reference = np.linalg.cholesky(cov)
    norm = np.linalg.norm(cov)
    gap = np.linalg.norm(lower @ lower.T - reference @ reference.T) / norm
    tolerance = 10.0 * model.covariance_jitter
    if not gap <= tolerance:
        return f"Cholesky reconstruction differs from numpy by {gap:.3g} > {tolerance:.3g}"
    return None


# --------------------------------------------------------------------------- #
# campaign-l48
# --------------------------------------------------------------------------- #
def run_campaign(ctx: Context, tracer=None) -> Phase:
    """Repeated three-scenario ``run_campaign`` into fresh lossless stores.

    A seeded sample of each call's stored chunks is kept; the serial
    references are computed after the timed calls, so they stay out of
    ``peak_rss_mb``.
    """
    phase = Phase()
    n_years = TRAINING["n_years"]
    rng = np.random.default_rng([ctx.seed, 1])
    samples = [
        (SCENARIOS[rng.integers(len(SCENARIOS))],
         int(rng.integers(CAMPAIGN_REALIZATIONS)), int(rng.integers(n_years)))
        for _ in range(CAMPAIGN_SAMPLES)
    ]
    stored = []   # per successful call: {sample: chunk read back from its store}

    begin = time.perf_counter()
    while phase.attempted < MIN_OPS or time.perf_counter() - begin < ctx.seconds:
        with _setup_span(tracer):
            store = setup_campaign(ctx)
        phase.attempted += 1
        try:
            with _op_span(tracer):
                start = time.perf_counter()
                manifest = repro.run_campaign(
                    ctx.artifact, list(SCENARIOS), CAMPAIGN_REALIZATIONS,
                    seed=ctx.seed, executor="thread", max_workers=ctx.workers,
                    batch_size=CAMPAIGN_BATCH, store=store,
                )
                phase.ops.append(time.perf_counter() - start)
            with _untraced(tracer):
                message = _check_counts(manifest, store)
                if not message:
                    stored.append(_read_samples(store, samples))
                    phase.counters["bytes_written"] = (
                        phase.counters.get("bytes_written", 0)
                        + store.stats()["encoded_bytes"]
                    )
        except Exception as exc:
            message = f"campaign raised {exc!r}"
        if message:
            phase.fail(message)
        shutil.rmtree(store.root)
    phase.peak_rss_mb = peak_rss_mb()

    with _untraced(tracer):
        reference = repro.load(ctx.artifact)
        grid = reference.training_summary.grid
        expected = {
            sample: _canonical_stream(reference, sample[0], ctx.seed, sample[1],
                                      sample[2] + 1)[sample[2]]
            for sample in samples
        }
    for chunks in stored:
        for (scenario, realization, year), chunk in chunks.items():
            if chunk is None or not np.array_equal(chunk, expected[scenario, realization, year]):
                phase.fail(f"stored chunk {scenario}/r{realization}/y{year} differs "
                           f"from the serial emulate_stream")
                break
    phase.counters["values_per_call"] = (
        len(SCENARIOS) * CAMPAIGN_REALIZATIONS * n_years
        * TRAINING["steps_per_year"] * grid.ntheta * grid.nphi)
    return phase


def _check_counts(manifest, store) -> "str | None":
    n_runs = len(SCENARIOS) * CAMPAIGN_REALIZATIONS
    if manifest.n_runs != n_runs:
        return f"campaign produced {manifest.n_runs} runs, expected {n_runs}"
    n_chunks = n_runs * TRAINING["n_years"]
    if len(store) != n_chunks:
        return f"store holds {len(store)} chunks, expected {n_chunks}"
    return None


def _read_samples(store, samples) -> dict:
    """The sampled ``(scenario, realization, year)`` chunks from a store."""
    chunks = {}
    for scenario, realization, year in samples:
        request = repro.FieldRequest(scenario, realization=realization, year_start=year)
        chunks[scenario, realization, year] = store.get(request.chunk_addresses()[year])
    return chunks


# --------------------------------------------------------------------------- #
# serve-l48
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Scheduled:
    at: float
    replica: int
    request: object
    kind: str       # "cold" (needs synthesis), "store" (other replica's), "hot"
    stream: tuple   # (scenario, realization)


def serve_schedule(seed: int, seconds: float, grid) -> list:
    """The open-loop request schedule, fixed in advance from the seed.

    Arrivals are Poisson at :data:`SERVE_RATE`.  A fixed share of the
    requests is cold, one in each block of ``1 / SERVE_COLD_SHARE``
    requests: a new realization's first year, or the next year of
    one of the most recently extended streams (which the home replica
    still holds paused, so it resumes rather than restarts).  The rest
    repeat chunks requested at least :data:`SERVE_HOT_AGE_S` earlier, on
    either replica: from the other replica's synthesis they are store
    reads.  Some requests span two years, some cut a spatial window.
    """
    rng = np.random.default_rng([seed, 2])
    n = max(SERVE_MIN_REQUESTS, int(round(SERVE_RATE * seconds)))
    arrivals = np.cumsum(rng.exponential(1.0 / SERVE_RATE, n))
    # One cold request at a seeded position in every block of requests, so
    # misses do not cluster by chance into bursts that queue on each other.
    block = int(round(1.0 / SERVE_COLD_SHARE))
    cold = {start + int(rng.integers(block)) if start else 0
            for start in range(0, n - block + 1, block)}
    next_index = {scenario: 0 for scenario in SCENARIOS}
    recent: list[list] = [[], []]   # per home replica, most recent last
    chunks: list[tuple] = []        # (time, scenario, realization, year)
    seen: dict[tuple, set] = {}     # chunk -> replicas that requested it
    schedule = []
    for i, at in enumerate(arrivals):
        if i in cold:
            home = int(rng.integers(SERVE_REPLICAS))
            candidates = [s for s in recent[home][-3:]
                          if s["next_year"] < SERVE_MAX_YEAR]
            if candidates and rng.random() < 0.5:
                stream = candidates[int(rng.integers(len(candidates)))]
                recent[home].remove(stream)
            else:
                scenario = SCENARIOS[int(rng.integers(len(SCENARIOS)))]
                stream = {"scenario": scenario, "realization": next_index[scenario],
                          "home": home, "next_year": 0}
                next_index[scenario] += 1
            recent[home].append(stream)
            year = stream["next_year"]
            stream["next_year"] += 1
            start = year - 1 if year > 0 and rng.random() < SERVE_MULTI_YEAR else year
            scenario, realization = stream["scenario"], stream["realization"]
            replica, kind = stream["home"], "cold"
            chunks.append((at, scenario, realization, year))
            years = range(start, year + 1)
        else:
            ripe = [c for c in chunks if c[0] <= at - SERVE_HOT_AGE_S] or chunks[:1]
            _, scenario, realization, year = ripe[int(rng.integers(len(ripe)))]
            start = year
            if (rng.random() < SERVE_MULTI_YEAR
                    and any(c[1:] == (scenario, realization, year + 1) for c in ripe)):
                year += 1
            replica = int(rng.integers(SERVE_REPLICAS))
            years = range(start, year + 1)
            known = all(replica in seen.get((scenario, realization, y), ())
                        for y in years)
            kind = "hot" if known else "store"
        for y in years:
            seen.setdefault((scenario, realization, y), set()).add(replica)
        window = None
        if rng.random() < SERVE_WINDOWED:
            rows = int(rng.integers(8, 25))
            cols = int(rng.integers(16, 49))
            lat0 = int(rng.integers(grid.ntheta - rows + 1))
            lon0 = int(rng.integers(grid.nphi - cols + 1))
            window = repro.SpatialWindow(lat=(lat0, lat0 + rows), lon=(lon0, lon0 + cols))
        request = repro.FieldRequest(scenario, realization=realization,
                                     year_start=years.start, year_stop=years.stop,
                                     window=window)
        schedule.append(Scheduled(float(at), replica, request, kind, (scenario, realization)))
    return schedule


def run_serve(ctx: Context, tracer=None) -> Phase:
    """An open loop against two replicas sharing one lossless store."""
    phase = Phase()
    # As in a fresh process, the first replica builds the transform plan.
    repro.clear_plan_cache()
    with _setup_span(tracer):
        replicas, root = setup_serve(ctx)
    schedule = serve_schedule(ctx.seed, ctx.seconds, replicas[0].grid)

    records: list = [None] * len(schedule)
    completed = [0]
    lock = threading.Lock()

    def handle(index: int, due: float) -> None:
        item = schedule[index]
        try:
            with _op_span(tracer, "request", rid=index):
                field_ = replicas[item.replica].get(item.request)
            end = time.perf_counter()
            records[index] = (end - due, field_.shape, zlib.crc32(field_), None)
        except Exception as exc:
            records[index] = (time.perf_counter() - due, None, None, repr(exc))
        with lock:
            completed[0] += 1

    lags, backlogs, futures = [], [], []
    with ThreadPoolExecutor(max_workers=ctx.workers) as pool:
        origin = time.perf_counter() + 0.01
        for index, item in enumerate(schedule):
            due = origin + item.at
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            lags.append(time.perf_counter() - due)
            with lock:
                backlogs.append(len(futures) - completed[0])
            futures.append(pool.submit(handle, index, due))
        _, pending = wait(futures, timeout=120.0)
        if pending:
            raise RuntimeError(f"{len(pending)} requests still pending after 120 s")
    phase.peak_rss_mb = peak_rss_mb()

    phase.counters.update(_serving_counters(replicas, root))
    phase.counters["lag_ms_max"] = 1e3 * max(lags)
    phase.counters["backlog_max"] = max(backlogs)
    with _untraced(tracer):
        _check_serve(ctx, phase, schedule, records, replicas[0].emulator)
    replicas = None
    gc.collect()
    shutil.rmtree(root)
    return phase


def _serving_counters(replicas, root) -> dict:
    stats = [replica.stats() for replica in replicas]
    requests = sum(s["requests"] for s in stats)
    return {
        "request_hit_ratio": sum(s["request_hits"] for s in stats) / max(requests, 1),
        "flights": sum(s["synthesis"]["flights"] for s in stats),
        "coalesced_waits": sum(s["synthesis"]["coalesced_waits"] for s in stats),
        "store_chunk_hits": sum(s["store_chunk_hits"] for s in stats),
        "bytes_written": repro.ChunkStore(root).stats()["encoded_bytes"],
    }


def _check_serve(ctx, phase, schedule, records, emulator) -> None:
    """Compare every response with the canonical stream, after the loop.

    One stream's reference is held at a time, so the check adds little to
    the process's peak memory.
    """
    limit = repro.obs.DEFAULT_SERVING_SLOS[0].p99
    by_stream: dict[tuple, list] = {}
    for item, record in zip(schedule, records):
        by_stream.setdefault(item.stream, []).append((item, record))
    within = 0
    for (scenario, realization), answered in by_stream.items():
        n_years = max(item.request.year_stop for item, _ in answered)
        reference = _canonical_stream(emulator, scenario, ctx.seed, realization, n_years)
        for item, (latency, shape, crc, error) in answered:
            phase.attempted += 1
            phase.ops.append(latency)
            phase.classes.setdefault(item.kind, []).append(latency)
            if error is not None:
                phase.fail(f"request raised {error}")
                continue
            request = item.request
            expected = np.concatenate(reference[request.year_start:request.year_stop])
            if request.window is not None:
                expected = np.ascontiguousarray(request.window.extract(expected))
            if shape != expected.shape or crc != zlib.crc32(expected):
                phase.fail(f"response to {request} differs from the canonical stream")
                continue
            within += latency <= limit
    phase.counters["slo_frac"] = within / len(schedule)


WORKLOADS = {
    "fit-l48": run_fit,
    "campaign-l48": run_campaign,
    "serve-l48": run_serve,
}
