"""Game engine, the SimulationPlan estimation seam, engine registry,
Monte-Carlo estimation, parallel batching, vectorized NumPy kernels,
and seeds."""

from repro.simulation.batch import (
    AttackFactory,
    ObliviousFactory,
    SpecFactory,
    count_range,
    play_trial,
    resolve_workers,
)
from repro.simulation.engines import NumpyEngine, PythonEngine
from repro.simulation.game import Game, GameResult, play_profile
from repro.simulation.montecarlo import (
    Estimate,
    estimate_collision_probability,
    estimate_profile_collision,
    wilson_interval,
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
    register_engine,
    run_plan,
)
from repro.simulation.seeds import derive_seed, rng_for, seed_stream
from repro.simulation.vectorized import (
    NUMPY_SEED_LABEL,
    VectorPlan,
    numpy_available,
    plan_profile,
)

__all__ = [
    "Game",
    "GameResult",
    "play_profile",
    "Estimate",
    "estimate_collision_probability",
    "estimate_profile_collision",
    "wilson_interval",
    "derive_seed",
    "rng_for",
    "seed_stream",
    "SpecFactory",
    "ObliviousFactory",
    "AttackFactory",
    "play_trial",
    "count_range",
    "resolve_workers",
    "SimulationPlan",
    "TrialTask",
    "RoundResult",
    "Engine",
    "EngineRegistry",
    "run_plan",
    "iter_rounds",
    "get_engine",
    "register_engine",
    "available_engines",
    "PythonEngine",
    "NumpyEngine",
    "NUMPY_SEED_LABEL",
    "VectorPlan",
    "numpy_available",
    "plan_profile",
]
