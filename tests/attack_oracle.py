"""Reference implementations of the greedy-gap attacks, kept as oracles.

These are the full-rescan versions of :class:`GreedyGapAttack` and
:class:`RunSaturationAttack` that ``repro.adversary.attacks`` replaced
with an incremental gap index. Every decision recomputes each
instance's forward gap from scratch, and the equalize phase reads
``view.counts()``, so they are slow but obviously correct. The property
tests require the shipped attacks to make exactly the same decisions.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional

from repro.adversary.adaptive import AdaptiveAdversary, circular_gap
from repro.adversary.base import GameView


class OracleGreedyGapAttack(AdaptiveAdversary):
    """Every step: press the instance predicted to hit foreign IDs soonest.

    Keeps a sorted index of every observed ID (with its owner), and on
    every decision bisects it once per instance, then walks past that
    instance's own IDs: ``n`` bisect-and-walks per step.
    """

    def __init__(self, n: int, d: int, rng=None):
        super().__init__(n, d, rng=rng)
        self._sorted_ids: List[int] = []
        self._owner_of: Dict[int, int] = {}
        self._events_seen = 0

    def _ingest_new_events(self, view: GameView) -> None:
        for instance, value in view.events_since(self._events_seen):
            if value not in self._owner_of:
                bisect.insort(self._sorted_ids, value)
            self._owner_of[value] = instance
        self._events_seen = view.steps

    def _forward_gap_to_foreign(self, predicted: int, me: int, m: int) -> int:
        """Circular forward distance from ``predicted`` to the nearest
        ID owned by another instance (scanning past own IDs)."""
        ids = self._sorted_ids
        count = len(ids)
        start = bisect.bisect_left(ids, predicted)
        for step in range(count):
            candidate = ids[(start + step) % count]
            if self._owner_of[candidate] != me:
                return circular_gap(predicted, candidate, m)
        return m  # no foreign IDs at all

    def exploit(self, view: GameView) -> Optional[int]:
        """Drive the instance whose predicted next ID has the smallest gap."""
        self._ingest_new_events(view)
        m = view.m
        best_instance = 0
        best_gap = m + 1
        for i in range(view.num_instances):
            predicted = (view.last_id_of(i) + 1) % m
            gap = self._forward_gap_to_foreign(predicted, i, m)
            if gap < best_gap:
                best_gap = gap
                best_instance = i
        return best_instance


class OracleRunSaturationAttack(AdaptiveAdversary):
    """Maximize open runs of ``Cluster*`` first, then apply gap pressure.

    ``equalize_fraction`` of the post-probe budget is spent keeping all
    instances at (near-)equal demand — each doubling of an instance's
    demand forces it to reveal a fresh run, maximizing λ, the number of
    runs an adaptive adversary can aim at. The rest of the budget runs
    the greedy-gap policy.
    """

    def __init__(
        self, n: int, d: int, equalize_fraction: float = 0.5, rng=None
    ):
        super().__init__(n, d, rng=rng)
        if not 0.0 <= equalize_fraction <= 1.0:
            raise ValueError(
                f"equalize_fraction must be in [0,1], got {equalize_fraction}"
            )
        self._equalize_budget = int((d - n) * equalize_fraction)
        self._greedy = OracleGreedyGapAttack(n, d)

    def exploit(self, view: GameView) -> Optional[int]:
        """Equalize per-instance counts for a budgeted prefix, then go greedy."""
        spent_after_probe = view.steps - self.n
        if spent_after_probe < self._equalize_budget:
            counts = view.counts()
            return min(range(len(counts)), key=counts.__getitem__)
        return self._greedy.exploit(view)
