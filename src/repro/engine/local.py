"""Single-process execution helpers.

:func:`run_local` takes a computation graph, compiles it to TCAP,
optimizes it, plans pipelines, and executes them with the vectorized
pipeline engine over in-memory sources.  It is the quickest way to run a
PC computation without standing up a (simulated) cluster, and the
differential-testing counterpart of the reference interpreter.
"""

from __future__ import annotations

from repro.engine.physical import plan_pipelines
from repro.engine.pipeline import PipelineEngine
from repro.engine.vectors import DEFAULT_BATCH_SIZE
from repro.tcap.compiler import compile_computations
from repro.tcap.optimizer import optimize


def run_local(sinks, sources, batch_size=DEFAULT_BATCH_SIZE, optimized=True,
              build_side_overrides=None):
    """Compile, (optionally) optimize, plan, and execute locally.

    ``sources`` maps ``(database, set)`` to lists of objects.  Returns
    ``(outputs, program, registry)`` where outputs maps ``(database, set)``
    of each Writer to the produced Python list and ``registry`` holds
    this run's ``pc_engine_*`` counts.
    """
    program = compile_computations(sinks)
    if optimized:
        optimize(program)
    plan = plan_pipelines(program, build_side_overrides=build_side_overrides)

    def scan_reader(scan_stmt):
        key = (scan_stmt.database, scan_stmt.set_name)
        return iter(sources[key])

    engine = PipelineEngine(program, plan, scan_reader, batch_size=batch_size)
    outputs = engine.run()
    return outputs, program, engine.registry
