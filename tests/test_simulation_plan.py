"""The SimulationPlan seam (repro.simulation.plan) and adaptive stopping.

Four guarantees are under test:

* **Split invariance** — for a fixed plan the estimate (including the
  adaptive stopping point) is bit-identical across ``workers=``
  counts and ``round_size`` choices on both RNG universes (python and
  numpy), and the batched oblivious trial matches the game loop
  (forced through :class:`GameLoopOnly`).
* **Adaptive precision** — with ``target_halfwidth`` set, sampling
  stops at the first Wilson checkpoint at or under the target
  (validated against analytically known probabilities from
  :mod:`repro.analysis.exact`), and an unreachable target runs the cap
  exactly while still returning a valid Wilson interval.
* **Registry** — the two built-in engines self-register, unknown
  names fail with the known ones listed, and third-party engines can
  register.
* **One API** — the removed pre-plan forms (``workers=`` on the
  ``estimate_*`` functions and ``ExperimentConfig``,
  ``SimulationPlan(batch=)``, the ``batched`` engine) are rejected,
  the plan API emits no :class:`DeprecationWarning`, and the
  numpy-missing fallback warning fires once per process.

All tests here carry the ``plan`` marker (CI's dedicated fast lane).
"""

import math
import warnings

import pytest

from repro.adversary.attacks import ClosestPairAttack
from repro.adversary.profiles import DemandProfile
from repro.analysis.exact import cluster_collision_probability
from repro.cli import main
from repro.errors import ConfigurationError
from repro.experiments.framework import ExperimentConfig
from repro.simulation import batch as batch_module
from repro.simulation import vectorized
from repro.simulation.batch import AttackFactory, ObliviousFactory, SpecFactory
from repro.simulation.montecarlo import (
    estimate_collision_probability,
    estimate_profile_collision,
)
from repro.simulation.plan import (
    Engine,
    EngineRegistry,
    RoundResult,
    SimulationPlan,
    TrialTask,
    available_engines,
    get_engine,
    iter_rounds,
    run_plan,
)
from repro.simulation.stats import wilson_interval

from game_loop_oracle import GameLoopOnly

pytestmark = pytest.mark.plan

M = 1 << 14
PROFILE = DemandProfile.of(48, 24, 12, 6)


def _estimate(plan, trials=2000, seed=17, spec="cluster"):
    return estimate_profile_collision(
        SpecFactory(spec), M, PROFILE, trials=trials, seed=seed, plan=plan
    )


# ---------------------------------------------------------------------------
# Split invariance: same plan => bit-identical estimate
# ---------------------------------------------------------------------------


class TestSplitInvariance:
    @pytest.mark.parametrize("engine", ["python", "numpy"])
    def test_adaptive_identical_across_workers_and_rounds(self, engine):
        if engine == "numpy" and not vectorized.numpy_available():
            pytest.skip("NumPy not installed")
        base = SimulationPlan(engine=engine, target_halfwidth=0.02)
        estimates = [
            _estimate(base.evolve(workers=workers, round_size=round_size))
            for workers in (None, 2, 3)
            for round_size in (None, 7, 64, 1000)
        ]
        assert all(e == estimates[0] for e in estimates)
        # the plan stopped early, so the invariance covered >1 checkpoint
        assert estimates[0].trials < 2000

    def test_adaptive_identical_across_batch_modes(self):
        plan = SimulationPlan(target_halfwidth=0.02)
        game_loop = estimate_collision_probability(
            SpecFactory("cluster"), M, GameLoopOnly(ObliviousFactory(PROFILE)),
            trials=2000, seed=17, stop_on_collision=False, plan=plan,
        )
        assert _estimate(plan) == game_loop

    def test_adaptive_attack_workload_identical_across_workers(self):
        plan = SimulationPlan(target_halfwidth=0.05)
        results = [
            estimate_collision_probability(
                SpecFactory("cluster"),
                M,
                AttackFactory(ClosestPairAttack, n=6, d=96),
                trials=400,
                seed=23,
                plan=plan.evolve(workers=workers),
            )
            for workers in (None, 2, 4)
        ]
        assert results[0] == results[1] == results[2]

    def test_adaptive_result_is_a_fixed_mode_prefix(self):
        """Stopping early must not change what was sampled: the adaptive
        estimate equals the fixed-mode estimate at its own stop count."""
        adaptive = _estimate(SimulationPlan(target_halfwidth=0.02))
        fixed = _estimate(SimulationPlan(), trials=adaptive.trials)
        assert adaptive == fixed


# ---------------------------------------------------------------------------
# Adaptive precision: early stop and the cap path
# ---------------------------------------------------------------------------


class TestAdaptiveStopping:
    def test_early_stop_honors_target_on_known_probability(self):
        exact = float(cluster_collision_probability(M, PROFILE))
        target = 0.03
        estimate = _estimate(
            SimulationPlan(target_halfwidth=target), trials=50_000
        )
        assert estimate.halfwidth <= target
        assert estimate.trials < 50_000
        # the interval it stopped at still covers the analytic truth
        assert estimate.ci_low <= exact <= estimate.ci_high

    def test_tighter_target_needs_more_trials(self):
        loose = _estimate(
            SimulationPlan(target_halfwidth=0.05), trials=100_000
        )
        tight = _estimate(
            SimulationPlan(target_halfwidth=0.01), trials=100_000
        )
        assert tight.trials > loose.trials
        assert tight.halfwidth <= 0.01

    def test_unreachable_target_runs_the_cap_with_valid_wilson_ci(self):
        cap = 700
        estimate = _estimate(
            SimulationPlan(target_halfwidth=1e-6), trials=cap
        )
        assert estimate.trials == cap
        low, high = wilson_interval(
            estimate.successes, cap, estimate.confidence
        )
        assert (estimate.ci_low, estimate.ci_high) == (low, high)
        # and the cap path is bit-identical to plain fixed mode
        assert estimate == _estimate(SimulationPlan(), trials=cap)

    def test_checkpoint_schedule_is_pure_and_capped(self):
        plan = SimulationPlan(
            target_halfwidth=0.01, min_trials=100, growth=2.0
        )
        assert list(plan.checkpoints(1000)) == [100, 200, 400, 800, 1000]
        assert list(plan.checkpoints(64)) == [64]
        assert list(SimulationPlan().checkpoints(500)) == [500]

    def test_resolve_cap_precedence(self):
        assert SimulationPlan().resolve_cap(300) == 300
        assert SimulationPlan(max_trials=200).resolve_cap(300) == 200
        assert SimulationPlan(max_trials=200).resolve_cap(150) == 150
        assert SimulationPlan(max_trials=200).resolve_cap(None) == 200
        with pytest.raises(ConfigurationError):
            SimulationPlan().resolve_cap(None)
        with pytest.raises(ConfigurationError):
            SimulationPlan().resolve_cap(0)

    def test_plan_validation(self):
        for bad in (
            dict(engine=""),
            dict(workers=-1),
            dict(round_size=0),
            dict(confidence=1.0),
            dict(target_halfwidth=0.0),
            dict(target_halfwidth=1.5),
            dict(min_trials=0),
            dict(growth=1.0),
            dict(max_trials=0),
            # each of these would otherwise reach the engine and crash
            # there with a TypeError or OverflowError
            dict(workers=1.5),
            dict(round_size=2.5),
            dict(min_trials=2.5, target_halfwidth=0.05),
            dict(max_trials=3.5),
            dict(growth=math.inf),
        ):
            with pytest.raises(ConfigurationError):
                SimulationPlan(**bad)
        with pytest.raises(ConfigurationError):
            SimulationPlan().resolve_cap(2.5)

    def test_iter_rounds_streams_the_full_cap(self):
        plan = SimulationPlan(round_size=64, target_halfwidth=0.01)
        task = TrialTask(
            factory=SpecFactory("cluster"),
            m=M,
            adversary_factory=ObliviousFactory(PROFILE),
            stop_on_collision=False,
        )
        rounds = list(iter_rounds(plan, task, seed=17, trials=300))
        assert [r.start for r in rounds] == [0, 64, 128, 192, 256]
        assert rounds[-1].stop == 300
        assert sum(r.trials for r in rounds) == 300
        fixed = _estimate(SimulationPlan(), trials=300)
        assert sum(r.collisions for r in rounds) == fixed.successes


# ---------------------------------------------------------------------------
# Engine registry
# ---------------------------------------------------------------------------


class TestEngineRegistry:
    def test_builtin_engines_registered(self):
        names = available_engines()
        for name in ("python", "numpy"):
            assert name in names
            assert get_engine(name).name == name

    def test_unknown_engine_lists_known_names(self):
        with pytest.raises(ConfigurationError, match="python"):
            get_engine("turbo")
        with pytest.raises(ConfigurationError):
            run_plan(
                SimulationPlan(engine="turbo"),
                TrialTask(
                    factory=SpecFactory("cluster"),
                    m=M,
                    adversary_factory=ObliviousFactory(PROFILE),
                ),
                trials=10,
            )

    def test_third_party_engine_pluggable(self):
        class ConstantEngine(Engine):
            name = "constant"

            def run_rounds(self, plan, task, seed, start, stop):
                yield RoundResult(start, stop, 0)

        registry = EngineRegistry()
        registry.register(ConstantEngine())
        assert "constant" in registry.names()
        assert registry.get("constant").name == "constant"

    def test_registered_engine_executes_through_its_own_run_rounds(
        self, monkeypatch
    ):
        """A third-party engine must actually run — never silently fall
        back to the python loop with wrong-universe counts."""
        from repro.simulation import plan as plan_module

        class EveryTrialCollides(Engine):
            name = "always"

            def run_rounds(self, plan, task, seed, start, stop):
                yield RoundResult(start, stop, stop - start)

        monkeypatch.setattr(plan_module, "REGISTRY", EngineRegistry())
        plan_module.register_engine(EveryTrialCollides())
        estimate = _estimate(SimulationPlan(engine="always"), trials=50)
        assert estimate.successes == 50

    def test_misaligned_engine_rounds_rejected(self, monkeypatch):
        """Rounds that do not tile [0, cap) must fail loudly, never
        silently inflate the estimate (successes > trials)."""
        from repro.simulation import plan as plan_module

        class Straddling(Engine):
            name = "straddling"

            def run_rounds(self, plan, task, seed, start, stop):
                yield RoundResult(0, 128, 10)
                yield RoundResult(128, stop + 8, 300)

        class UnderCovering(Engine):
            name = "under"

            def run_rounds(self, plan, task, seed, start, stop):
                yield RoundResult(0, 128, 10)

        monkeypatch.setattr(plan_module, "REGISTRY", EngineRegistry())
        plan_module.register_engine(Straddling())
        plan_module.register_engine(UnderCovering())
        task = TrialTask(
            factory=SpecFactory("cluster"),
            m=M,
            adversary_factory=ObliviousFactory(PROFILE),
        )
        with pytest.raises(ConfigurationError, match="tile"):
            run_plan(SimulationPlan(engine="straddling"), task, trials=512)
        with pytest.raises(ConfigurationError, match="covered only"):
            run_plan(SimulationPlan(engine="under"), task, trials=512)

    def test_count_range_rejects_unknown_engine_kinds(self):
        with pytest.raises(ConfigurationError, match="run_rounds"):
            batch_module.count_range(
                SpecFactory("cluster"), M, ObliviousFactory(PROFILE),
                0, 0, 10, engine="numpyy",
            )

    def test_nameless_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            EngineRegistry().register(Engine())


# ---------------------------------------------------------------------------
# Deprecated shims (now removed) and warning hygiene
# ---------------------------------------------------------------------------


class TestDeprecatedShims:
    """The pre-plan shims are gone: their forms fail loudly, and the
    one remaining API warns about nothing deprecated."""

    def test_pre_plan_forms_are_rejected(self):
        with pytest.raises(TypeError):
            estimate_profile_collision(
                SpecFactory("cluster"), M, PROFILE,
                trials=10, seed=1, workers=2,
            )
        with pytest.raises(TypeError):
            ExperimentConfig(workers=3)
        with pytest.raises(TypeError):
            SimulationPlan(batch=False)
        with pytest.raises(ConfigurationError, match="python"):
            get_engine("batched")
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", "cluster", "8,8", "--engine", "batched"])
        assert exit_info.value.code == 2

    def test_plan_api_emits_no_deprecation_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            _estimate(SimulationPlan(workers=2), trials=100)
            ExperimentConfig(plan=SimulationPlan())

    def test_numpy_fallback_warns_once_per_process(self, monkeypatch):
        monkeypatch.setattr(vectorized, "_np", None)
        monkeypatch.setattr(batch_module, "_numpy_fallback_warned", False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = _estimate(SimulationPlan(engine="numpy"), trials=50)
            second = _estimate(SimulationPlan(engine="numpy"), trials=50)
        runtime = [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        assert len(runtime) == 1, runtime
        assert "NumPy is not installed" in str(runtime[0].message)
        # the fallback really ran the python universe
        assert first == second == _estimate(SimulationPlan(), trials=50)
