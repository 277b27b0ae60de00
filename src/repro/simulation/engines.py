"""The built-in estimation engines, registered behind the plan seam.

Two backends self-register into :data:`repro.simulation.plan.REGISTRY`
on import:

``python``
    The reference engine: per-trial game loop, with the batched
    oblivious fast path wherever it applies (bit-identical to the
    loop) and trials sharded across ``plan.workers`` processes.
    Bit-identical at any split.
``numpy``
    The vectorized kernels of :mod:`repro.simulation.vectorized`:
    whole rounds of oblivious trials as array operations, same
    split-invariance, but a *separate RNG universe* from ``python``.
    Workloads the kernels cannot express — and hosts without NumPy
    (once-per-process warning) — degrade to the python path.

Both delegate range counting to
:func:`repro.simulation.batch.count_range`, whose per-trial purity is
what lets the plan layer promise split-invariant estimates. A new
backend only needs :meth:`Engine.run_rounds` yielding partition-pure
:class:`RoundResult` chunks and a ``register_engine`` call.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Iterator

from repro.simulation.batch import (
    _pickle_obstacle,
    _warn_unpicklable,
    count_range,
    resolve_workers,
)
from repro.simulation.plan import (
    Engine,
    RoundResult,
    SimulationPlan,
    TrialTask,
    register_engine,
)


class _RangeEngine(Engine):
    """Shared round-slicing logic over :func:`count_range` backends."""

    #: Trial-block kind handed to ``count_range``.
    kind: str = "python"

    def _slices(
        self, plan: SimulationPlan, start: int, stop: int
    ) -> "list[tuple[int, int]]":
        """Round boundaries: checkpoint-aligned, then ``round_size``-cut.

        Aligning rounds to ``plan.checkpoints(stop)`` is what lets the
        :func:`~repro.simulation.plan.run_plan` driver evaluate its
        stop rule mid-stream; sub-slicing by ``round_size`` is pure
        execution granularity. Neither changes any count.
        """
        boundaries = [
            c for c in plan.checkpoints(stop) if start < c <= stop
        ]
        if not boundaries or boundaries[-1] != stop:
            boundaries.append(stop)
        slices = []
        low = start
        for boundary in boundaries:
            size = plan.round_size or max(1, boundary - low)
            while low < boundary:
                high = min(boundary, low + size)
                slices.append((low, high))
                low = high
        return slices

    def run_rounds(
        self,
        plan: SimulationPlan,
        task: TrialTask,
        seed: int,
        start: int,
        stop: int,
    ) -> Iterator[RoundResult]:
        if stop <= start:
            return
        slices = self._slices(plan, start, stop)
        # One worker pool and one picklability probe for the whole
        # call: neither small round sizes nor adaptive checkpoints may
        # pay a process-spawn (or a pickle round-trip, or a repeated
        # warning) per round. The estimate is unchanged either way —
        # pooling is pure execution detail. The pool is created even
        # for a single slice so count_range never re-probes.
        workers = min(resolve_workers(plan.workers), stop - start)
        plan_workers = plan.workers
        obstacle = (
            _pickle_obstacle(task.factory, task.adversary_factory)
            if workers > 1
            else None
        )
        if obstacle is not None:
            _warn_unpicklable(obstacle, stacklevel=2)
            workers = 1
            plan_workers = None
        executor = None
        if workers > 1:
            executor = ProcessPoolExecutor(max_workers=workers)
        try:
            for low, high in slices:
                collisions = count_range(
                    task.factory,
                    task.m,
                    task.adversary_factory,
                    seed,
                    low,
                    high,
                    stop_on_collision=task.stop_on_collision,
                    max_steps=task.max_steps,
                    workers=plan_workers,
                    engine=self.kind,
                    executor=executor,
                )
                yield RoundResult(low, high, collisions)
        finally:
            if executor is not None:
                executor.shutdown()


class PythonEngine(_RangeEngine):
    """Per-trial game loop, batched where oblivious: the reference."""

    name = "python"
    kind = "python"


class NumpyEngine(_RangeEngine):
    """Vectorized NumPy kernels; python fallback outside their regime."""

    name = "numpy"
    kind = "numpy"


PYTHON_ENGINE = register_engine(PythonEngine())
NUMPY_ENGINE = register_engine(NumpyEngine())

__all__ = [
    "PythonEngine",
    "NumpyEngine",
    "PYTHON_ENGINE",
    "NUMPY_ENGINE",
]
