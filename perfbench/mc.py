"""Estimation workloads: ``mc-adaptive`` and ``mc-oblivious``.

Both run batch Monte-Carlo work on the default plan (``engine=
"python"``, ``batch=True``, serial) over a fixed list of cells. The
timed window plays rounds: in each round every cell runs a fixed number
of trials, seeded by ``(workload seed, cell, round)``. Trials stream
through :func:`repro.simulation.plan.iter_rounds` with
``round_size=1``, which gives the same collision counts as one
``estimate_*`` call and marks where each trial ends, so each trial is
timed on its own.

* ``mc-adaptive`` — E7's cells: {Cluster, Cluster*} x {ClosestPair,
  GreedyGap, RunSaturation}, m = 2^20, d = 1024, n = 16. Trials per
  round follow E7's 5:1:1 budget split between the attacks.
* ``mc-oblivious`` — E1/E2/E3 cells on the batched ``generate_batch``
  path that ``uuidp report`` uses; no game loop, no adversary.

Checks (outside the timed window): the first rounds of every cell are
replayed through the public ``estimate_collision_probability`` /
``estimate_profile_collision`` and must give the same collision
counts; they must equal the committed counts for the default and
held-out seeds; Cluster* must stay inside E7's Theorem 8 band
(estimate / target <= 8); an oblivious cell's estimate must lie within
five standard errors of its exact probability.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from time import monotonic, perf_counter_ns
from typing import Any, Dict, List, Optional, Tuple

from perfbench.common import (
    SLICE_NS,
    mix_seed,
    peak_rss_mb,
    summarize_window,
    use_source_tree,
)
from perfbench.tracing import (
    Tracer,
    TracedAdversaryFactory,
    TracedGeneratorFactory,
    CallCounts,
)

use_source_tree()

from repro.adversary.attacks import (  # noqa: E402
    ClosestPairAttack,
    GreedyGapAttack,
    RunSaturationAttack,
)
from repro.adversary.profiles import DemandProfile  # noqa: E402
from repro.analysis.bounds import theorem8_cluster_star  # noqa: E402
from repro.analysis.exact import exact_collision_probability  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.simulation.batch import (  # noqa: E402
    AttackFactory,
    ObliviousFactory,
    SpecFactory,
)
from repro.simulation.montecarlo import (  # noqa: E402
    estimate_collision_probability,
    estimate_profile_collision,
)
from repro.simulation.plan import (  # noqa: E402
    SimulationPlan,
    TrialTask,
    iter_rounds,
)

#: The default plan; only the dispatch granularity differs in the window.
PLAN = SimulationPlan()
TIMED_PLAN = PLAN.evolve(round_size=1)
#: Rounds replayed through the public estimate functions and committed.
CHECK_ROUNDS = 4
#: E7's adaptive grid point.
ADAPTIVE_N = 16
ADAPTIVE_D = 1024
#: E7's band on Cluster*'s estimate / Theorem 8 target.
THEOREM8_BAND = 8.0
#: Standard errors an oblivious estimate may stray from the exact value.
EXACT_Z = 5.0

ATTACKS = {
    "closest_pair": ClosestPairAttack,
    "greedy_gap": GreedyGapAttack,
    "run_saturation": RunSaturationAttack,
}


@dataclass(frozen=True)
class Cell:
    """One estimation cell: algorithm, universe, demand and budget."""

    spec: str
    m: int
    trials: int
    attack: Optional[str] = None
    #: Oblivious cells: ``(n, demand per instance)``.
    uniform: Optional[Tuple[int, int]] = None

    @property
    def label(self) -> str:
        if self.attack is not None:
            return f"{self.spec}/{self.attack}"
        n, each = self.uniform
        return f"{self.spec}/uniform({n},{each})"


CELLS = {
    "mc-adaptive": [
        Cell(spec, 1 << 20, trials, attack=attack)
        for spec in ("cluster", "cluster_star")
        for attack, trials in (
            ("closest_pair", 10), ("greedy_gap", 2), ("run_saturation", 2)
        )
    ],
    # Trials per round give each cell a similar share of the time.
    "mc-oblivious": [
        Cell("cluster", 1 << 24, 10, uniform=(16, 256)),
        Cell("bins:64", 1 << 20, 20, uniform=(8, 128)),
        Cell("random", 1 << 24, 2, uniform=(8, 512)),
    ],
}


class MCWorkload:
    """Set-up, timed window and checks of one estimation workload."""

    def __init__(self, name: str, seed: int,
                 tracer: Optional[Tracer] = None) -> None:
        self.name = name
        self.cells = CELLS[name]
        self.seed = seed
        self.tracer = tracer
        self.counts = CallCounts()

    def round_seed(self, cell: int, round_index: int) -> int:
        """Root seed of one cell's round."""
        return mix_seed(self.seed, cell, round_index)

    def _task(self, cell: Cell) -> TrialTask:
        factory: Any = SpecFactory(cell.spec)
        if cell.attack is not None:
            adversary: Any = AttackFactory(
                ATTACKS[cell.attack], n=ADAPTIVE_N, d=ADAPTIVE_D
            )
            stop_on_collision = True
        else:
            adversary = ObliviousFactory(DemandProfile.uniform(*cell.uniform))
            stop_on_collision = False
        if self.tracer is not None:
            factory = TracedGeneratorFactory(factory, self.tracer, self.counts)
            # Wrapping an ObliviousFactory would hide it from the batched
            # fast path, so only adaptive adversaries are wrapped.
            if cell.attack is not None:
                adversary = TracedAdversaryFactory(
                    adversary, self.tracer, self.counts
                )
        return TrialTask(factory=factory, m=cell.m,
                         adversary_factory=adversary,
                         stop_on_collision=stop_on_collision)

    def setup(self) -> None:
        """Build the tasks and warm up with one round of every cell."""
        self.tasks = [self._task(cell) for cell in self.cells]
        warmup_seed = mix_seed(self.seed, -1)
        for task, cell in zip(self.tasks, self.cells):
            for _ in iter_rounds(TIMED_PLAN, task, seed=warmup_seed,
                                 trials=cell.trials):
                pass
        if self.tracer is not None:
            self.tracer.reset()
        self.counts.reset()

    def run(self, seconds: float) -> Dict[str, Any]:
        """Play rounds until ``seconds`` pass and the check rounds ran."""
        tracer = self.tracer
        cells, tasks = self.cells, self.tasks
        latencies = array("d")
        record = latencies.append
        self.collisions = [0] * len(cells)
        self.trials = [0] * len(cells)
        self.checked = [[] for _ in cells]
        failed = 0
        window_id = trial_id = 0
        if tracer is not None:
            window_id = tracer.new_id()
            tracer.parent = window_id
        marks: List[Tuple[int, int]] = []
        self.window_started = monotonic()
        start = now = perf_counter_ns()
        deadline = start + int(seconds * 1e9)
        next_mark = start + SLICE_NS
        round_index = 0
        while now < deadline or round_index < CHECK_ROUNDS:
            for index, (cell, task) in enumerate(zip(cells, tasks)):
                collisions: Optional[int] = 0
                if tracer is not None:
                    trial_id = tracer.new_id()
                before = perf_counter_ns()
                try:
                    for result in iter_rounds(
                        TIMED_PLAN, task, seed=self.round_seed(index, round_index),
                        trials=cell.trials,
                    ):
                        now = perf_counter_ns()
                        record(now - before)
                        if tracer is not None:
                            tracer.span("simulation.trial", before, now,
                                        span_id=trial_id)
                            tracer.close_aggregates(trial_id)
                            trial_id = tracer.new_id()
                        before = now
                        collisions += result.collisions
                        self.collisions[index] += result.collisions
                        self.trials[index] += 1
                except ReproError:
                    # The trial that raised counts as failed; the rest
                    # of this cell's round is skipped.
                    now = perf_counter_ns()
                    failed += 1
                    record(float("inf"))
                    collisions = None
                if now >= next_mark:
                    marks.append((len(latencies), now))
                    next_mark = now + SLICE_NS
                if round_index < CHECK_ROUNDS:
                    self.checked[index].append(collisions)
            round_index += 1
            now = perf_counter_ns()
        if tracer is not None:
            tracer.span("window", start, now, span_id=window_id, parent=0)
        trials = sum(self.trials)
        return {
            "attempted": trials + failed,
            "failed": failed,
            "elapsed_s": (now - start) / 1e9,
            "peak_rss_mb": peak_rss_mb(),
            "summary": summarize_window(latencies, marks, start, now),
        }

    # -- checks -------------------------------------------------------------

    def committed_values(self) -> Dict[str, Any]:
        """What ``expected.json`` commits: the check rounds'
        ``[collisions, trials]`` per cell (collisions are ``None`` if a
        check-round trial raised)."""
        return {"cells": {
            cell.label: [
                None if None in rounds else sum(rounds),
                CHECK_ROUNDS * cell.trials,
            ]
            for cell, rounds in zip(self.cells, self.checked)
        }}

    def public_estimate(self, index: int, round_index: int) -> int:
        """One check round through the public estimate function."""
        cell = self.cells[index]
        seed = self.round_seed(index, round_index)
        factory = SpecFactory(cell.spec)
        if cell.attack is not None:
            estimate = estimate_collision_probability(
                factory, cell.m,
                AttackFactory(ATTACKS[cell.attack], n=ADAPTIVE_N, d=ADAPTIVE_D),
                trials=cell.trials, seed=seed, plan=PLAN,
            )
        else:
            estimate = estimate_profile_collision(
                factory, cell.m, DemandProfile.uniform(*cell.uniform),
                trials=cell.trials, seed=seed, plan=PLAN,
            )
        return estimate.successes

    def verify(self, expected: Optional[Dict[str, Any]]) -> List[Tuple[str, bool, str]]:
        """Every output check; each is ``(name, passed, detail)``."""
        checks = []
        mismatches = []
        for index, cell in enumerate(self.cells):
            for round_index in range(CHECK_ROUNDS):
                try:
                    public = self.public_estimate(index, round_index)
                except ReproError as exc:
                    public = f"{type(exc).__name__}: {exc}"
                if public != self.checked[index][round_index]:
                    mismatches.append(
                        f"{cell.label} round {round_index}: "
                        f"{self.checked[index][round_index]} vs {public}"
                    )
        checks.append(("timed trials match the public estimate",
                       not mismatches, "; ".join(mismatches) or "ok"))
        if expected is not None:
            measured = self.committed_values()["cells"]
            differ = [f"{label}: {measured.get(label)} vs {value}"
                      for label, value in expected["cells"].items()
                      if measured.get(label) != value]
            checks.append(("check rounds match the committed values",
                           not differ, "; ".join(differ) or "ok"))
        for index, cell in enumerate(self.cells):
            trials, hits = self.trials[index], self.collisions[index]
            if cell.spec == "cluster_star":
                target = theorem8_cluster_star(cell.m, ADAPTIVE_N, ADAPTIVE_D)
                ratio = hits / trials / target
                checks.append((f"{cell.label} inside the Theorem 8 band",
                               ratio <= THEOREM8_BAND,
                               f"estimate/target = {ratio:.3f} "
                               f"({hits}/{trials})"))
            if cell.uniform is not None:
                exact = float(exact_collision_probability(
                    cell.spec, cell.m, DemandProfile.uniform(*cell.uniform)))
                error = math.sqrt(exact * (1 - exact) / trials)
                estimate = hits / trials
                checks.append((f"{cell.label} matches its exact probability",
                               abs(estimate - exact) <= EXACT_Z * error + 1 / trials,
                               f"{estimate:.5f} vs exact {exact:.5f} "
                               f"({hits}/{trials})"))
        return checks

    # -- metrics ------------------------------------------------------------

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer metrics of a traced run."""
        tracer = self.tracer
        self_ns = tracer.self_times()
        _, trial_ns, _ = tracer.busy("simulation.trial")
        adversary_ns = sum(tracer.busy(name)[1] for name in (
            "adversary.new", "adversary.begin", "adversary.next_request"))
        core_ns = sum(tracer.busy(name)[1] for name in (
            "core.new_instance", "core.next_id", "core.generate_batch"))
        counts = self.counts
        return {
            "workloads.loop_self_s": self_ns.get("window", 0) / 1e9,
            "simulation.trials": sum(self.trials),
            "simulation.collisions": sum(self.collisions),
            "simulation.busy_s": trial_ns / 1e9,
            "simulation.self_s": self_ns.get("simulation.trial", 0) / 1e9,
            "adversary.decisions": counts.decisions,
            "adversary.busy_s": adversary_ns / 1e9,
            "core.instances": counts.instances,
            "core.ids": counts.ids,
            "core.busy_s": core_ns / 1e9,
        }

    def timed_calls(self) -> int:
        """Wrapped calls timed in the window."""
        return self.tracer.timed_calls

    def write_trace(self, path: str, header: Dict[str, Any]) -> None:
        """Write the spans to ``path``."""
        self.tracer.write(path, header)

    def close(self) -> None:
        """Nothing to release."""
