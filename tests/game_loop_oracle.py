"""A factory wrapper that forces oblivious trials through the game loop.

:func:`repro.simulation.batch.play_trial` takes the batched
``generate_batch`` trial whenever it sees a sequential, non-empty
:class:`~repro.simulation.batch.ObliviousFactory`. The game loop stays
the oracle for that fast path: wrapping the factory in
:class:`GameLoopOnly` hides it from ``play_trial``, so the same
adversaries play the same games step by step, and the tests require
the two paths to agree trial by trial and estimate by estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.adversary.base import Adversary
from repro.simulation.batch import ObliviousFactory


@dataclass(frozen=True)
class GameLoopOnly:
    """Delegates to ``inner`` but is not an :class:`ObliviousFactory`.

    Module-level and frozen, so it pickles for multi-worker plans.
    """

    inner: ObliviousFactory

    def __call__(self, rng) -> Adversary:
        return self.inner(rng)
