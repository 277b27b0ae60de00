"""The estimation seam: :class:`SimulationPlan`, engines, adaptive stopping.

Every Monte-Carlo estimate is described by one frozen policy object
and executed by a backend from a registry:

* :class:`SimulationPlan` — *how* to estimate: which engine, how many
  worker processes, execution granularity, and *to what precision*.
  With ``target_halfwidth`` set, trials run in seeded rounds and stop
  early at the first checkpoint whose Wilson-CI half-width is small
  enough (or at the trial cap).
* :class:`Engine` / :class:`EngineRegistry` — the protocol behind
  which the python game-loop engine and the NumPy vectorized engine
  self-register (:mod:`repro.simulation.engines`). Future backends
  (GPU, distributed) plug in here instead of growing another kwarg.
* :func:`run_plan` — the driver: executes a :class:`TrialTask` under a
  plan and returns an :class:`~repro.simulation.stats.Estimate`.

Determinism contract
--------------------

For a fixed plan and root seed the returned estimate is **bit
identical** regardless of ``workers=`` count, ``round_size``, or any
internal chunking, because

1. every trial's outcome is a pure function of ``(root seed, trial
   index)`` for both engines, so collision counts over an index range
   are partition-invariant; and
2. adaptive stopping is evaluated only at *checkpoints* — a trial-count
   schedule derived purely from the plan's precision fields
   (``min_trials`` doubling up to the cap), never from how trials were
   scheduled onto rounds or workers.

Changing the engine between ``python`` and ``numpy`` changes the RNG
universe (documented in :mod:`repro.simulation.vectorized`);
everything else is execution detail.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from repro.errors import ConfigurationError
from repro.simulation.stats import Estimate, wilson_interval


def _require_count(name: str, value: Any) -> None:
    """Reject a non-integer count before an engine trips over it."""
    if value is None:
        return
    try:
        operator.index(value)
    except TypeError:
        raise ConfigurationError(
            f"{name} must be an integer, got {value!r}"
        ) from None


@dataclass(frozen=True)
class SimulationPlan:
    """A frozen estimation policy: execution backend + precision target.

    Execution fields (never change the estimate):

    * ``engine`` — registry name of the backend (``python``,
      ``numpy``, …).
    * ``workers`` — process count per round (``None``/``1`` serial,
      ``0`` one per CPU).
    * ``round_size`` — trials per engine dispatch inside a checkpoint
      segment (``None`` = one dispatch per segment). Memory/latency
      knob only.

    Sampling fields (define the estimate):

    * ``seed`` — root seed when the call site does not supply one;
      every trial derives from ``(seed, trial index)``.
    * ``confidence`` — Wilson interval confidence level.
    * ``target_halfwidth`` — adaptive mode: stop at the first
      checkpoint where the Wilson half-width is ≤ this (``None`` =
      fixed mode, run the cap exactly). The returned interval is the
      plain Wilson CI at the stopped sample size; sequential looking
      makes its realized coverage slightly below nominal (optional
      stopping over the handful of geometric checkpoints) — consumers
      needing strict coverage should add slack or use fixed mode.
    * ``min_trials`` / ``growth`` — the checkpoint schedule:
      ``min_trials``, then geometric growth by ``growth``, capped.
    * ``max_trials`` — the trial cap. Call sites may pass their own
      ``trials=``; the effective cap is the smaller of the two.
    """

    engine: str = "python"
    workers: Optional[int] = None
    round_size: Optional[int] = None
    seed: int = 0
    confidence: float = 0.95
    target_halfwidth: Optional[float] = None
    min_trials: int = 128
    growth: float = 2.0
    max_trials: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.engine or not isinstance(self.engine, str):
            raise ConfigurationError(
                f"engine must be a non-empty string, got {self.engine!r}"
            )
        for name in ("workers", "round_size", "min_trials", "max_trials"):
            _require_count(name, getattr(self, name))
        if self.workers is not None and self.workers < 0:
            raise ConfigurationError(
                f"workers must be >= 0, got {self.workers}"
            )
        if self.round_size is not None and self.round_size < 1:
            raise ConfigurationError(
                f"round_size must be >= 1, got {self.round_size}"
            )
        if not 0 < self.confidence < 1:
            raise ConfigurationError(
                f"confidence must be in (0,1), got {self.confidence}"
            )
        if self.target_halfwidth is not None and not (
            0 < self.target_halfwidth < 1
        ):
            raise ConfigurationError(
                "target_halfwidth must be in (0,1), got "
                f"{self.target_halfwidth}"
            )
        if self.min_trials < 1:
            raise ConfigurationError(
                f"min_trials must be >= 1, got {self.min_trials}"
            )
        if not (self.growth > 1 and math.isfinite(self.growth)):
            raise ConfigurationError(
                f"growth must be finite and > 1, got {self.growth}"
            )
        if self.max_trials is not None and self.max_trials < 1:
            raise ConfigurationError(
                f"max_trials must be >= 1, got {self.max_trials}"
            )

    @property
    def adaptive(self) -> bool:
        """Whether this plan stops on precision rather than count."""
        return self.target_halfwidth is not None

    def evolve(self, **changes: Any) -> "SimulationPlan":
        """A copy of the plan with ``changes`` applied (it is frozen)."""
        return replace(self, **changes)

    def resolve_cap(self, trials: Optional[int] = None) -> int:
        """The effective trial cap for a call site asking for ``trials``.

        The smaller of the call site's ``trials`` and the plan's
        ``max_trials``; at least one of the two must be set.
        """
        _require_count("trials", trials)
        if trials is None and self.max_trials is None:
            raise ConfigurationError(
                "no trial cap: pass trials= or set SimulationPlan.max_trials"
            )
        if trials is None:
            cap = self.max_trials
        elif self.max_trials is None:
            cap = trials
        else:
            cap = min(trials, self.max_trials)
        if cap < 1:
            raise ConfigurationError(f"trials must be >= 1, got {cap}")
        return cap

    def checkpoints(self, cap: int) -> Iterator[int]:
        """Cumulative trial counts at which the stop rule is evaluated.

        Fixed mode yields ``cap`` once. Adaptive mode yields
        ``min(min_trials, cap)`` then grows geometrically by
        ``growth`` up to ``cap``. The schedule depends only on plan
        fields and ``cap`` — never on ``workers`` or ``round_size`` —
        which is what makes adaptive estimates split-invariant.
        """
        if not self.adaptive:
            yield cap
            return
        count = min(self.min_trials, cap)
        while True:
            yield count
            if count >= cap:
                return
            count = min(cap, max(count + 1, math.ceil(count * self.growth)))


@dataclass(frozen=True)
class TrialTask:
    """One estimation workload: what the engines execute.

    ``factory(m, rng)`` builds a generator instance;
    ``adversary_factory(rng)`` builds the (stateful) adversary for one
    trial. Both must pickle for cross-process execution — see the
    shims in :mod:`repro.simulation.batch`.
    """

    factory: Callable[..., Any]
    m: int
    adversary_factory: Callable[..., Any]
    stop_on_collision: bool = True
    max_steps: Optional[int] = None


@dataclass(frozen=True)
class RoundResult:
    """Collision count of one executed round of trials.

    Covers trial indices ``[start, stop)``; a pure function of the
    task, the root seed, and those indices.
    """

    start: int
    stop: int
    collisions: int

    @property
    def trials(self) -> int:
        """Trials this slice covers (``stop - start``)."""
        return self.stop - self.start


class Engine:
    """Protocol for estimation backends.

    An engine turns a contiguous range of trial indices into
    :class:`RoundResult` chunks. Implementations must guarantee that
    each trial's collision outcome is a pure function of ``(seed,
    trial index)`` — that purity is what the plan layer's determinism
    contract rests on.
    """

    #: Registry name; set by subclasses.
    name: str = ""

    def run_rounds(
        self,
        plan: SimulationPlan,
        task: TrialTask,
        seed: int,
        start: int,
        stop: int,
    ) -> Iterator[RoundResult]:
        """Yield collision counts covering trials ``[start, stop)``."""
        raise NotImplementedError


class EngineRegistry:
    """Name → :class:`Engine` mapping with helpful failure messages."""

    def __init__(self) -> None:
        self._engines: Dict[str, Engine] = {}

    def register(self, engine: Engine) -> Engine:
        """Register ``engine`` under ``engine.name`` (idempotent)."""
        if not engine.name:
            raise ConfigurationError("engine must define a non-empty name")
        self._engines[engine.name] = engine
        return engine

    def get(self, name: str) -> Engine:
        """The engine registered as ``name``; ConfigurationError if unknown."""
        self._ensure_builtin_engines()
        try:
            return self._engines[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown engine {name!r}; expected one of "
                f"{', '.join(self.names())}"
            ) from None

    def names(self) -> Tuple[str, ...]:
        """Registered engine names, in registration order."""
        self._ensure_builtin_engines()
        return tuple(self._engines)

    def _ensure_builtin_engines(self) -> None:
        # The built-in engines self-register on import; importing here
        # (rather than at module load) avoids a plan <-> batch cycle.
        import repro.simulation.engines  # noqa: F401


#: The process-wide default registry the built-in engines register into.
REGISTRY = EngineRegistry()


def register_engine(engine: Engine) -> Engine:
    """Register ``engine`` in the default registry (returns it)."""
    return REGISTRY.register(engine)


def get_engine(name: str) -> Engine:
    """Look up an engine by name in the default registry."""
    return REGISTRY.get(name)


def available_engines() -> Tuple[str, ...]:
    """Registered engine names, registration order."""
    return REGISTRY.names()


def run_plan(
    plan: SimulationPlan,
    task: TrialTask,
    seed: Optional[int] = None,
    trials: Optional[int] = None,
    confidence: Optional[float] = None,
) -> Estimate:
    """Execute ``task`` under ``plan`` and return the estimate.

    ``seed``, ``trials`` (cap) and ``confidence`` default to the
    plan's own fields; call sites that sweep seeds or budgets pass
    them explicitly without rebuilding plans.

    Fixed mode runs exactly the cap. Adaptive mode consumes the
    engine's round stream, evaluating the Wilson interval whenever a
    round lands exactly on a checkpoint of the plan's schedule, and
    stops at the first one whose half-width is ≤
    ``plan.target_halfwidth`` (or at the cap). Either way the result
    is bit-identical for any ``workers``/``round_size`` split — see
    the module docstring for why.

    Statistical caveat: the returned CI is the ordinary Wilson
    interval at the stopped ``n`` with no sequential correction, so
    under adaptive stopping its realized coverage sits a little below
    the nominal ``confidence`` (optional-stopping bias over the ≤
    ``log_growth(cap/min_trials)`` looks). The experiments' straddle
    checks carry explicit slack for exactly this reason.

    The engine is asked for the whole ``[0, cap)`` range in one
    ``run_rounds`` call (so it can hold worker pools open across
    rounds) and its generator is closed on early stop. Engine rounds
    must tile ``[0, cap)`` contiguously in index order with sane
    collision counts — violations raise :class:`ConfigurationError`
    instead of corrupting the estimate. Aligning rounds to
    ``plan.checkpoints(stop)`` boundaries is softer: an engine that
    straddles a checkpoint merely loses that early-stop opportunity,
    because evaluation only ever happens on a complete ``[0, c)``
    prefix (and always happens at the cap, which every schedule ends
    on).
    """
    root = plan.seed if seed is None else seed
    level = plan.confidence if confidence is None else confidence
    cap = plan.resolve_cap(trials)
    engine = get_engine(plan.engine)
    checkpoints = set(plan.checkpoints(cap))
    collisions = 0
    done = 0
    covered = 0
    stopped_early = False
    low = high = 0.0
    rounds = engine.run_rounds(plan, task, root, 0, cap)
    try:
        for round_result in rounds:
            if (
                round_result.start != covered
                or round_result.stop <= round_result.start
                or round_result.stop > cap
                or not 0 <= round_result.collisions <= round_result.trials
            ):
                raise ConfigurationError(
                    f"engine {plan.engine!r} yielded an invalid round "
                    f"{round_result!r} at covered={covered}, cap={cap}: "
                    "rounds must tile [0, cap) contiguously with "
                    "0 <= collisions <= trials"
                )
            covered = round_result.stop
            collisions += round_result.collisions
            if round_result.stop not in checkpoints:
                continue
            done = round_result.stop
            low, high = wilson_interval(collisions, done, level)
            if (
                plan.target_halfwidth is not None
                and (high - low) / 2.0 <= plan.target_halfwidth
            ):
                stopped_early = True
                break
    finally:
        close = getattr(rounds, "close", None)
        if close is not None:
            close()
    if not stopped_early and covered != cap:
        raise ConfigurationError(
            f"engine {plan.engine!r} covered only [0, {covered}) of the "
            f"requested [0, {cap}); run_rounds must span the whole range"
        )
    return Estimate(
        probability=collisions / done,
        trials=done,
        successes=collisions,
        ci_low=low,
        ci_high=high,
        confidence=level,
    )


def iter_rounds(
    plan: SimulationPlan,
    task: TrialTask,
    seed: Optional[int] = None,
    trials: Optional[int] = None,
) -> Iterator[RoundResult]:
    """Stream the raw rounds a plan would execute (no stop rule).

    Diagnostic/streaming hook: yields every round of the full cap in
    index order, regardless of ``target_halfwidth``. Summing the
    collision counts reproduces the fixed-mode estimate exactly.
    """
    root = plan.seed if seed is None else seed
    cap = plan.resolve_cap(trials)
    engine = get_engine(plan.engine)
    for round_result in engine.run_rounds(plan, task, root, 0, cap):
        yield round_result


__all__ = [
    "SimulationPlan",
    "TrialTask",
    "RoundResult",
    "Engine",
    "EngineRegistry",
    "REGISTRY",
    "register_engine",
    "get_engine",
    "available_engines",
    "run_plan",
    "iter_rounds",
]
