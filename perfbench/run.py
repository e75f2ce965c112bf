"""Repository benchmark: fit, campaign and open-loop serving at lmax=48.

Run from the repository root::

    python3 perfbench/run.py --workload serve-l48 --seed 1 --seconds 12 --trace 0

Workloads (see ``perfbench/README.md``):

* ``fit-l48``       repeated ``repro.fit`` of one seeded training ensemble;
* ``campaign-l48``  repeated ``repro.run_campaign`` into a lossless store;
* ``serve-l48``     an open loop against two ``EmulationService`` replicas.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` first runs
the same untraced pass, then repeats it with the layer wrappers installed
and reports the per-layer metrics.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full report
(host fingerprint, thread budget, quartiles, tails) is written under
``.perfbench/reports/`` and, for traced runs, every span under
``.perfbench/traces/``.

Exit status: 0 when every check passed, 1 on any correctness failure (the
JSON line is still printed), 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))
STATE = os.path.join(ROOT, ".perfbench")

#: Fresh-process set-ups per run, ``setup_s`` being their median: at least
#: the first count, and more while they have taken less than the seconds.
SETUP_REPEATS = (3, 9)
SETUP_BUDGET_S = 4.0
#: Worker threads each workload runs; BLAS gets ``nproc // workers``.
WORKER_THREADS = {"fit-l48": 1, "campaign-l48": 2, "serve-l48": 2}
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKER_THREADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def thread_budget(workload: str) -> dict:
    """Worker threads x BLAS threads <= nproc, pinned before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    workers = min(WORKER_THREADS[workload], nproc)
    blas = max(1, nproc // workers)
    return {"nproc": nproc, "workers": workers, "blas_threads": blas,
            "env": {name: str(blas) for name in BLAS_ENV}}


def host_fingerprint(nproc: int) -> dict:
    """A cheap identity of the host; reports are compared only within one."""
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    host = {"nproc": nproc, "cpu": cpu, "machine": platform.machine(),
            "numpy": np.__version__, "blas": blas,
            "python": platform.python_version()}
    host["id"] = hashlib.sha256(json.dumps(host, sort_keys=True).encode()).hexdigest()[:16]
    return host


def summarize(samples) -> dict:
    """Median, quartiles, and the highest percentile with 10 samples beyond."""
    samples = sorted(samples)
    n = len(samples)
    out = {"n": n, "median": statistics.median(samples)}
    q1, _, q3 = statistics.quantiles(samples, n=4) if n >= 2 else (samples[0],) * 3
    out.update(q1=q1, q3=q3)
    for p in (99.9, 99.0, 95.0, 90.0):
        if n * (1 - p / 100) >= 10:
            out[f"p{p:g}"] = percentile(samples, p)
            break
    return out


def percentile(samples, p: float) -> float:
    """Linear-interpolated percentile of the samples."""
    samples = sorted(samples)
    position = (len(samples) - 1) * p / 100
    low = int(position)
    high = min(low + 1, len(samples) - 1)
    return samples[low] + (samples[high] - samples[low]) * (position - low)


def source_digest(host_id: str) -> str:
    """SHA-256 of the program and benchmark sources, and of the host.

    The artifact digest is recorded under this key, so only invocations of
    the same code on the same host are compared: a change that moves any
    fitted bit starts a new record rather than failing against an old one.
    """
    digest = hashlib.sha256(host_id.encode())
    for top in (os.path.join(ROOT, "src", "repro"), HERE):
        for folder, dirs, files in sorted(os.walk(top)):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
    return digest.hexdigest()


def prepare_artifact(work: str, budget: dict, host_id: str) -> dict:
    """Fit and save the artifact in a child process; check its digest
    against the one recorded by earlier invocations of the same code."""
    path = os.path.join(work, "emulator.npz")
    env = dict(os.environ, **{name: str(budget["nproc"]) for name in BLAS_ENV})
    child = subprocess.run(
        [sys.executable, os.path.join(HERE, "artifact.py"), path],
        env=env, capture_output=True, text=True, timeout=600,
    )
    if child.returncode != 0:
        raise RuntimeError(f"artifact fit failed:\n{child.stderr}")
    info = json.loads(child.stdout.strip().splitlines()[-1])
    key = source_digest(host_id)
    record_path = os.path.join(STATE, "artifact-digests.json")
    records = {}
    if os.path.exists(record_path):
        with open(record_path) as fh:
            records = json.load(fh)
    recorded = records.setdefault(key, info["digest"])
    with open(record_path, "w") as fh:
        json.dump(records, fh, indent=1)
    info.update(path=path, source=key, identical=recorded == info["digest"])
    return info


def time_setups(workload: str, ctx) -> list:
    """Wall seconds from spawning a fresh process to its workload being set up."""
    command = [sys.executable, os.path.join(HERE, "fresh_setup.py"),
               workload, str(ctx.seed), ctx.work]
    if ctx.artifact is not None:
        command.append(ctx.artifact)
    samples = []
    least, most = SETUP_REPEATS
    while len(samples) < least or (len(samples) < most and sum(samples) < SETUP_BUDGET_S):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - start)
            child.communicate(timeout=300)
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"fresh set-up of {workload} failed ({child.returncode})")
    return samples


def named_metrics(workload: str, phase, setup: list) -> dict:
    """The workload's metrics under their descriptive names, with spread."""
    ms = lambda xs: [1e3 * x for x in xs]  # noqa: E731
    out = {"setup_s": ("s", summarize(setup))}
    if workload == "fit-l48":
        out["fit_s"] = ("s", summarize(phase.ops))
    elif workload == "campaign-l48":
        per_call = phase.counters["values_per_call"]
        out["campaign_values_per_s"] = (
            "1/s", summarize([per_call / op for op in phase.ops]))
        out["campaign_s"] = ("s", summarize(phase.ops))
    else:
        out["serve_ms"] = ("ms", summarize(ms(phase.ops)))
        for kind in ("cold", "store", "hot"):
            if phase.classes.get(kind):
                out[f"serve_{kind}_ms"] = ("ms", summarize(ms(phase.classes[kind])))
        out["serve_slo_frac"] = ("frac", phase.counters["slo_frac"])
        out["loadgen.lag_ms.max"] = ("ms", phase.counters["lag_ms_max"])
        out["loadgen.backlog.max"] = ("count", phase.counters["backlog_max"])
    out["failed_frac"] = ("frac", phase.failed / max(phase.attempted, 1))
    return out


def end_to_end(phase, setup: list) -> dict:
    """The contract metrics every workload reports (see BENCHMARK.json)."""
    return {
        "setup_s": (statistics.median(setup), "s"),
        "op_ms.p50": (1e3 * statistics.median(phase.ops), "ms"),
        "op_ms.p95": (1e3 * percentile(phase.ops, 95.0), "ms"),
        "peak_rss_mb": (phase.peak_rss_mb, "MB"),
    }


def print_report(report: dict) -> None:
    host, threads = report["host"], report["threads"]
    print(f"perfbench {report['workload']} seed={report['seed']} "
          f"seconds={report['seconds']:g} trace={report['trace']}")
    print(f"host id={host['id']} nproc={host['nproc']} cpu=\"{host['cpu']}\" "
          f"numpy={host['numpy']} blas=\"{host['blas']}\" python={host['python']}")
    print(f"threads workers={threads['workers']} blas={threads['blas_threads']} "
          + " ".join(f"{k}={v}" for k, v in threads["env"].items()))
    if "artifact" in report:
        art = report["artifact"]
        print(f"artifact fit_s={art['fit_s']:.4f} digest={art['digest'][:16]} "
              f"source={art['source'][:16]} "
              f"identical_to_recorded={art['identical']}")
    print(f"{'metric':<28}{'unit':>8}{'median':>14}{'q1':>12}{'q3':>12}  tail          n")
    for name, (unit, value) in report["metrics"].items():
        if isinstance(value, dict):
            tail = next(((k, v) for k, v in value.items() if k.startswith("p")), None)
            tail_text = f"{tail[0]}={tail[1]:.4g}" if tail else "-"
            print(f"{name:<28}{unit:>8}{value['median']:>14.6g}{value['q1']:>12.6g}"
                  f"{value['q3']:>12.6g}  {tail_text:<13} {value['n']}")
        else:
            print(f"{name:<28}{unit:>8}{value:>14.6g}")
    for name, (value, unit) in report["end_to_end"].items():
        print(f"e2e {name:<24}{unit:>8}{value:>14.6g}")
    for name, value in report.get("per_layer", {}).items():
        print(f"layer {name:<38}{value:>14.6g}")
    for error in report["errors"]:
        print(f"FAILED {error}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program source under {ROOT}/src", file=sys.stderr)
        return 2
    budget = thread_budget(args.workload)
    os.environ.update(budget["env"])
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    for sub in ("reports", "traces"):
        os.makedirs(os.path.join(STATE, sub), exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=STATE)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "threads": budget,
              "host": host_fingerprint(budget["nproc"])}
    try:
        ctx = workloads.Context(seed=args.seed, seconds=args.seconds, work=work,
                                workers=budget["workers"])
        if args.workload != "fit-l48":
            report["artifact"] = prepare_artifact(work, budget, report["host"]["id"])
            ctx.artifact = report["artifact"]["path"]
        setup = time_setups(args.workload, ctx)
        run = workloads.WORKLOADS[args.workload]
        phase = run(ctx)
        if args.trace:
            import layers

            tracer = Tracer()
            layers.install(tracer)
            try:
                traced = run(ctx, tracer)
            finally:
                tracer.uninstall()
            report["per_layer"] = layers.per_layer(tracer, traced, phase)
            tracer.dump(os.path.join(
                STATE, "traces", f"{args.workload}-seed{args.seed}.json"))
            phase.attempted += traced.attempted
            phase.failed += traced.failed
            phase.errors += traced.errors
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report["metrics"] = named_metrics(args.workload, phase, setup)
    report["metrics"]["peak_rss_mb"] = ("MB", phase.peak_rss_mb)
    report["end_to_end"] = end_to_end(phase, setup)
    report["errors"] = list(phase.errors)
    if "artifact" in report and not report["artifact"]["identical"]:
        phase.attempted += 1
        phase.failed += 1
        report["errors"].append(
            "artifact differs from the one an earlier run of the same code fitted")
    report["attempted"], report["failed"] = phase.attempted, phase.failed
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(STATE, "reports", name), "w") as fh:
        json.dump(report, fh, indent=1, default=str)

    print_report(report)
    if args.trace:
        metrics = {name: {"value": report["per_layer"][name], "unit": unit}
                   for name, unit, _ in layers.metric_specs()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in report["end_to_end"].items()}
    correct = phase.failed == 0
    print(json.dumps({"correct": correct, "attempted": phase.attempted,
                      "failed": phase.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
