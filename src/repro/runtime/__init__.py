"""Task-graph substrate for the analytic models and the tuning layer.

The paper's solver is expressed as a DAG of tile tasks (POTRF / TRSM /
SYRK / GEMM) executed by the PaRSEC runtime over thousands of GPUs.  Here
the DAG is a model, not an execution engine: the factorisation itself is a
direct tile loop (:meth:`repro.linalg.MixedPrecisionCholesky.factorize`),
and this subpackage keeps the pieces the analytic side runs on:

* :mod:`repro.runtime.task` — task descriptions (reads/writes, flops,
  compute precision, communication payloads); no kernels.
* :mod:`repro.runtime.dag` — dependency analysis: build the task graph from
  data accesses, critical path, parallelism profile.  The paper-figure
  benchmarks and the campaign cost model (:mod:`repro.tuning.costmodel`)
  consume these profiles.
* :mod:`repro.runtime.machine` — descriptions of GPUs, nodes and machines
  (per-precision peak rates, memory, interconnect) plus the collective-
  priority and conversion-side policy enums of Sections III-C and V-A.

The discrete-event scheduler/simulator layer that once lived here
(``ListScheduler``, ``DistributedSimulator``, ``CommunicationModel``,
``MemoryTracker``) was reachable only from its own tests and was folded
per ROADMAP item 5: the analytic cost model in
:mod:`repro.systems.perf_model` and the measured autotuner in
:mod:`repro.tuning` cover the questions it answered.
"""

from repro.runtime.task import Task
from repro.runtime.dag import TaskGraph, build_task_graph
from repro.runtime.machine import (
    CollectivePriority,
    ConversionSide,
    GPUSpec,
    MachineSpec,
    NodeSpec,
)

__all__ = [
    "CollectivePriority",
    "ConversionSide",
    "GPUSpec",
    "MachineSpec",
    "NodeSpec",
    "Task",
    "TaskGraph",
    "build_task_graph",
]
