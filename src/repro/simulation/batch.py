"""Parallel, batched Monte-Carlo trial execution.

This module is the engine room beneath the
:mod:`repro.simulation.plan` seam (and thus behind
:func:`repro.simulation.montecarlo.estimate_collision_probability`):
the registered engines slice trial-index ranges into rounds and hand
them to :func:`count_range` here. Three mechanisms live in this file:

* **Sharding** — independent seeded trials are strided across worker
  processes (``concurrent.futures.ProcessPoolExecutor``). Every trial's
  randomness derives from ``(root seed, trial index)`` alone via
  :func:`repro.simulation.seeds.derive_seed`, so the collision count —
  and therefore the :class:`~repro.simulation.montecarlo.Estimate` — is
  bit-identical at any worker count, including the serial path.
* **Batching** — oblivious sequential games skip the step-by-step game
  loop entirely: each instance produces its whole demand vector through
  :meth:`repro.core.base.IDGenerator.generate_batch` and collisions are
  detected with set operations. The per-trial collision outcome is
  provably the same as the game loop's, so this path is always taken
  where it applies and estimates never change.
* **Vectorization** — ``engine="numpy"`` goes further and simulates a
  whole block of oblivious trials as array operations
  (:mod:`repro.simulation.vectorized`). Dispatch requires a
  :class:`SpecFactory` for one of the five core algorithms plus a
  sequential :class:`ObliviousFactory`; anything else (adaptive
  attacks, custom factories, out-of-regime profiles, a missing NumPy)
  silently runs the python path. Unlike ``workers`` — a pure
  go-faster knob — the NumPy engine is a *separate RNG universe*:
  estimates are reproducible per engine but differ across engines by
  ordinary Monte-Carlo noise.

Worker processes must be able to *pickle* the instance and adversary
factories. The lambdas that are idiomatic for in-process use don't
pickle, so this module also ships three picklable factory shims:
:class:`SpecFactory` (registry spec string → generator),
:class:`ObliviousFactory` (demand profile → oblivious adversary) and
:class:`AttackFactory` (adversary class + kwargs → adaptive adversary).
Unpicklable factories silently degrade to the serial path (same
results, no speedup) after emitting a :class:`RuntimeWarning`.
"""

from __future__ import annotations

import inspect
import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Dict, Optional, Tuple

from repro.adversary.base import Adversary, ObliviousAdversary
from repro.adversary.profiles import DemandProfile
from repro.core.registry import make_generator
from repro.errors import ConfigurationError, GameError
from repro.simulation import vectorized
from repro.simulation.game import Game, InstanceFactory
from repro.simulation.seeds import derive_seed, rng_for

#: Seed-path label for the per-trial adversary RNG. Must stay in sync
#: with the historical value used by ``estimate_collision_probability``
#: so existing seeds reproduce existing estimates.
ADVERSARY_SEED_LABEL = 0xAD

AdversaryFactory = Callable[..., Adversary]


# ---------------------------------------------------------------------------
# Picklable factory shims
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpecFactory:
    """A picklable :data:`InstanceFactory` built from a registry spec.

    ``SpecFactory("bins:16")(m, rng)`` is
    ``make_generator("bins:16", m, rng)``; unlike the equivalent lambda
    it crosses process boundaries, which is what lets experiments and
    the CLI fan trials out across workers.
    """

    spec: str

    def __call__(self, m: int, rng) -> Any:
        return make_generator(self.spec, m, rng)


@dataclass(frozen=True)
class ObliviousFactory:
    """A picklable adversary factory replaying a fixed demand profile.

    With the default ``order="sequential"`` the factory is also
    *batchable*: :func:`play_trial` recognizes it and switches to the
    vectorized ``generate_batch`` trial path.
    """

    profile: DemandProfile
    order: str = "sequential"

    def __call__(self, rng) -> Adversary:
        return ObliviousAdversary(self.profile, order=self.order, rng=rng)


@lru_cache(maxsize=None)
def _accepts_rng(attack_cls: type) -> bool:
    """Whether ``attack_cls.__init__`` takes an ``rng`` keyword."""
    try:
        parameters = inspect.signature(attack_cls.__init__).parameters
    except (TypeError, ValueError):  # pragma: no cover - C extensions
        return False
    if "rng" in parameters:
        return True
    return any(
        parameter.kind is inspect.Parameter.VAR_KEYWORD
        for parameter in parameters.values()
    )


@dataclass(frozen=True)
class AttackFactory:
    """A picklable adversary factory from a class and keyword arguments.

    ``AttackFactory(ClosestPairAttack, n=8, d=1024)`` builds a fresh
    (stateful) attack per trial, like the lambdas it replaces. The class
    is pickled by reference, so any module-level adversary class works.

    Attack classes whose ``__init__`` accepts an ``rng`` keyword get the
    derived per-trial RNG, so any randomness they use is fully
    seed-derived (an explicit ``rng=`` in ``kwargs`` wins); classes
    without the keyword are built from ``kwargs`` alone.
    """

    attack_cls: type
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def __init__(self, attack_cls: type, **kwargs: Any):
        object.__setattr__(self, "attack_cls", attack_cls)
        object.__setattr__(self, "kwargs", kwargs)

    def __call__(self, rng) -> Adversary:
        if "rng" not in self.kwargs and _accepts_rng(self.attack_cls):
            return self.attack_cls(rng=rng, **self.kwargs)
        return self.attack_cls(**self.kwargs)


# ---------------------------------------------------------------------------
# Single-trial execution (game loop or vectorized batch path)
# ---------------------------------------------------------------------------


def _batchable_profile(
    adversary_factory: AdversaryFactory,
) -> Optional[DemandProfile]:
    """The demand profile, if the factory admits the batched fast path."""
    if (
        isinstance(adversary_factory, ObliviousFactory)
        and adversary_factory.order == "sequential"
        # Empty profiles must keep flowing through the game loop, which
        # rejects them ("adversary stopped without making any request");
        # the batched path would silently report no collision instead.
        and len(adversary_factory.profile.demands) > 0
    ):
        return adversary_factory.profile
    return None


def _play_profile_trial_batched(
    factory: InstanceFactory,
    m: int,
    profile: DemandProfile,
    game_seed: int,
) -> bool:
    """One oblivious sequential trial without the game loop.

    Instance ``i`` gets ``rng_for(game_seed, i)`` — the exact RNG the
    :class:`Game` engine would hand it — and emits its whole demand via
    ``generate_batch``. The trial collides iff two instances share an
    ID, and stops at the first mid-batch exhaustion, mirroring the
    engine's semantics, so the collision outcome is identical.
    """
    seen: set = set()
    for index, demand in enumerate(profile.demands):
        generator = factory(m, rng_for(game_seed, index))
        ids = generator.generate_batch(demand)
        fresh = set(ids)
        if len(fresh) != len(ids):
            raise GameError(
                f"generator bug: instance {index} repeated an ID"
            )
        if not seen.isdisjoint(fresh):
            return True
        seen |= fresh
        if len(ids) < demand:  # exhausted mid-batch: the game stops here
            return False
    return False


def play_trial(
    factory: InstanceFactory,
    m: int,
    adversary_factory: AdversaryFactory,
    seed: int,
    trial: int,
    stop_on_collision: bool = True,
    max_steps: Optional[int] = None,
) -> bool:
    """Play trial number ``trial`` and return whether it collided.

    This is *the* definition of a trial: both the serial loop and every
    worker process call it, which is what makes estimates independent
    of how trials are scheduled. A sequential, non-empty
    :class:`ObliviousFactory` without ``max_steps`` takes the batched
    ``generate_batch`` trial; everything else plays the game loop.
    """
    if max_steps is None:
        profile = _batchable_profile(adversary_factory)
        if profile is not None:
            return _play_profile_trial_batched(
                factory, m, profile, derive_seed(seed, trial)
            )
    adversary = adversary_factory(rng_for(seed, trial, ADVERSARY_SEED_LABEL))
    game = Game(
        factory,
        m,
        adversary,
        seed=derive_seed(seed, trial),
        stop_on_collision=stop_on_collision,
    )
    return game.run(max_steps=max_steps).collided


# ---------------------------------------------------------------------------
# Sharded execution
# ---------------------------------------------------------------------------

def _vector_plan(
    factory: InstanceFactory,
    m: int,
    adversary_factory: AdversaryFactory,
) -> Optional["vectorized.VectorPlan"]:
    """The NumPy execution plan, if this workload admits one.

    Requires a :class:`SpecFactory` (the kernels dispatch on the spec
    string) and a batchable oblivious profile; the remaining gates live
    in :func:`repro.simulation.vectorized.plan_profile`. Deterministic
    in its arguments, so every worker process reaches the same verdict.
    """
    if not isinstance(factory, SpecFactory):
        return None
    profile = _batchable_profile(adversary_factory)
    if profile is None:
        return None
    return vectorized.plan_profile(factory.spec, m, profile)


#: Everything a worker needs to play its stride of trials.
_TrialBlock = Tuple[
    InstanceFactory,  # factory
    int,  # m
    AdversaryFactory,  # adversary_factory
    int,  # seed
    int,  # offset — first trial index of this block
    int,  # stride — number of blocks (trials offset, offset+stride, ...)
    int,  # trials — total trial count across all blocks
    bool,  # stop_on_collision
    Optional[int],  # max_steps
    str,  # engine
]


def _run_trial_block(payload: _TrialBlock) -> int:
    """Play trials ``offset, offset+stride, ...`` and count collisions."""
    (
        factory,
        m,
        adversary_factory,
        seed,
        offset,
        stride,
        trials,
        stop_on_collision,
        max_steps,
        engine,
    ) = payload
    if engine == "numpy" and max_steps is None:
        plan = _vector_plan(factory, m, adversary_factory)
        if plan is not None:
            return plan.count_collisions(seed, offset, stride, trials)
    collisions = 0
    for trial in range(offset, trials, stride):
        if play_trial(
            factory,
            m,
            adversary_factory,
            seed,
            trial,
            stop_on_collision=stop_on_collision,
            max_steps=max_steps,
        ):
            collisions += 1
    return collisions


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a ``workers=`` option to a concrete process count.

    ``None`` and ``1`` mean in-process serial execution; ``0`` means
    "one per CPU"; anything negative is a configuration error.
    """
    if workers is None:
        return 1
    if workers < 0:
        raise ConfigurationError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


def _pickle_obstacle(*objects: Any) -> Optional[BaseException]:
    """The exception pickling ``objects`` raises, or ``None`` if they
    round-trip. The concrete exception is surfaced in the serial-
    fallback warning so users see *why* their factory stayed serial."""
    try:
        pickle.dumps(objects)
        return None
    except (pickle.PicklingError, TypeError, AttributeError, ValueError) as exc:
        # The documented failure modes of pickle.dumps: closures and
        # local classes (PicklingError/AttributeError), unsupported
        # types (TypeError), recursive/invalid state (ValueError).
        return exc


def _warn_unpicklable(
    obstacle: BaseException, stacklevel: int = 3
) -> None:
    warnings.warn(
        "factories are not picklable "
        f"({type(obstacle).__name__}: {obstacle}); running trials "
        "serially (use SpecFactory / ObliviousFactory / AttackFactory "
        "for cross-process execution)",
        RuntimeWarning,
        stacklevel=stacklevel,
    )


#: Fires the numpy-missing fallback warning once per process instead of
#: once per ``estimate_*`` call (experiment sweeps made it deafening).
_numpy_fallback_warned = False


def _resolve_engine_kind(engine: str) -> str:
    """Normalize an engine name to a trial-block kind.

    ``numpy`` degrades to ``python`` (with a once-per-process warning)
    when NumPy is absent. Anything else is rejected loudly: this module
    only knows how to execute the built-in kinds, and silently running
    the python loop for, say, a registered third-party engine name
    would return wrong-universe counts with no warning.
    """
    if engine == "numpy" and not vectorized.numpy_available():
        global _numpy_fallback_warned
        if not _numpy_fallback_warned:
            _numpy_fallback_warned = True
            warnings.warn(
                "NumPy is not installed; engine='numpy' falling back to "
                "the python engine (estimates will match "
                "engine='python', not a NumPy-equipped host; this "
                "warning fires once per process)",
                RuntimeWarning,
                stacklevel=4,
            )
        return "python"
    if engine not in ("python", "numpy"):
        raise ConfigurationError(
            f"count_range cannot execute engine {engine!r}; it only "
            "implements the built-in python/numpy kinds — "
            "custom engines must provide their own run_rounds"
        )
    return engine


def count_range(
    factory: InstanceFactory,
    m: int,
    adversary_factory: AdversaryFactory,
    seed: int,
    start: int,
    stop: int,
    stop_on_collision: bool = True,
    max_steps: Optional[int] = None,
    workers: Optional[int] = None,
    engine: str = "python",
    executor: Optional[ProcessPoolExecutor] = None,
) -> int:
    """Count collisions over the trial indices ``[start, stop)``.

    The partition-invariant primitive beneath the plan-layer engines:
    each trial's outcome is a pure function of ``(seed, trial index)``,
    so counts over any index range compose by addition and never depend
    on ``workers`` or how a caller slices the range into rounds.

    Callers issuing many calls (the plan layer's rounds) pass a shared
    ``executor`` so worker processes are spawned once, not per call;
    without one a fresh pool is created when ``workers`` asks for it.
    """
    kind = _resolve_engine_kind(engine)  # validate even for empty ranges
    if stop <= start:
        return 0
    count = min(resolve_workers(workers), stop - start)
    # A caller-supplied executor proves picklability — skip re-probing
    # (a full pickle round-trip of both factories) on every round.
    if count > 1 and executor is None:
        obstacle = _pickle_obstacle(factory, adversary_factory)
        if obstacle is not None:
            _warn_unpicklable(obstacle)
            count = 1
    payloads = [
        (
            factory,
            m,
            adversary_factory,
            seed,
            start + shard,
            count,
            stop,
            stop_on_collision,
            max_steps,
            kind,
        )
        for shard in range(count)
    ]
    if count <= 1:
        return _run_trial_block(payloads[0])
    if executor is not None:
        return sum(executor.map(_run_trial_block, payloads))
    with ProcessPoolExecutor(max_workers=count) as pool:
        return sum(pool.map(_run_trial_block, payloads))
