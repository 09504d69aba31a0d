"""The PC execution engine: physical planning and vectorized pipelines."""

from repro.engine.interpreter import LocalInterpreter
from repro.engine.local import run_local
from repro.engine.physical import PhysicalPlan, Pipeline, plan_pipelines
from repro.engine.pipeline import PipelineEngine
from repro.engine.vectors import DEFAULT_BATCH_SIZE, VectorList, batches_of

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "LocalInterpreter",
    "PhysicalPlan",
    "Pipeline",
    "PipelineEngine",
    "VectorList",
    "batches_of",
    "plan_pipelines",
    "run_local",
]
