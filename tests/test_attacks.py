"""Unit tests for the adaptive attacks (repro.adversary.attacks)."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.adaptive import circular_gap
from repro.adversary.attacks import (
    ClosestPairAttack,
    GreedyGapAttack,
    RunSaturationAttack,
    closest_trailing_pair,
)
from repro.adversary.base import Adversary, GameView
from repro.core.cluster import ClusterGenerator
from repro.errors import GameError
from repro.simulation.batch import SpecFactory
from repro.simulation.game import Game
from repro.simulation.montecarlo import estimate_collision_probability

from attack_oracle import OracleGreedyGapAttack, OracleRunSaturationAttack


def make_view(m, first_ids):
    view = GameView(m)
    for instance, value in enumerate(first_ids):
        view._record(instance, value, False)
    return view


class TestCircularGap:
    def test_forward_distance(self):
        assert circular_gap(3, 7, 10) == 4
        assert circular_gap(7, 3, 10) == 6
        assert circular_gap(5, 5, 10) == 0


class TestClosestTrailingPair:
    def test_identifies_trailing_instance(self):
        # IDs 10, 13, 50 on Z_100: closest forward gap is 10 -> 13.
        view = make_view(100, [10, 13, 50])
        trailing, leading, gap = closest_trailing_pair(view)
        assert (trailing, leading, gap) == (0, 1, 3)

    def test_wraparound_pair(self):
        view = make_view(100, [98, 1, 50])
        trailing, leading, gap = closest_trailing_pair(view)
        assert (trailing, leading, gap) == (0, 1, 3)

    def test_duplicate_first_ids(self):
        view = make_view(100, [42, 42])
        _, _, gap = closest_trailing_pair(view)
        assert gap == 0


class TestClosestPairAttack:
    def test_probes_then_locks_target(self):
        m = 1 << 16
        attack = ClosestPairAttack(n=4, d=20)
        game = Game(
            lambda mm, rr: ClusterGenerator(mm, rr),
            m,
            attack,
            seed=5,
            stop_on_collision=False,
            keep_transcript=True,
        )
        result = game.run()
        assert result.steps == 20
        instances = [instance for instance, _ in result.transcript]
        assert instances[:4] == [0, 1, 2, 3]
        # After probing, a single instance receives everything.
        assert len(set(instances[4:])) == 1

    def test_budget_validation(self):
        with pytest.raises(GameError):
            ClosestPairAttack(n=1, d=10)
        with pytest.raises(GameError):
            ClosestPairAttack(n=8, d=4)

    def test_beats_oblivious_baseline(self):
        """The heart of Lemma 7: measurable amplification at small m."""
        m, n, d = 1 << 14, 8, 256
        adaptive = estimate_collision_probability(
            lambda mm, rr: ClusterGenerator(mm, rr),
            m,
            lambda rng: ClosestPairAttack(n=n, d=d),
            trials=1200,
            seed=3,
        )
        # Oblivious at the same budget: nd/m = 0.125; Lemma 7 predicts
        # ~n²d/m (clamped) for the attack. Require a clear 2x gap.
        assert adaptive.probability > 2 * (n * d / m)


class TestGreedyGapAttack:
    def test_targets_the_imminent_collision(self):
        m = 1 << 12
        attack = GreedyGapAttack(n=3, d=10)
        # Probe phase first.
        game = Game(
            lambda mm, rr: ClusterGenerator(mm, rr),
            m,
            attack,
            seed=9,
            stop_on_collision=False,
            keep_transcript=True,
        )
        result = game.run()
        assert result.steps == 10

    def test_exploit_chooses_min_gap_instance(self):
        view = make_view(1000, [0, 10, 500])
        attack = GreedyGapAttack(n=3, d=100)
        # Instance 0's next ID (1) is 9 away from instance 1's ID (10);
        # instance 1's next (11) is 489 from 500; instance 2's next
        # (501) is 499 from 0 (wrapping). Best is instance 0.
        assert attack.exploit(view) == 0

    def test_incremental_ingestion_consistency(self):
        view = make_view(1000, [5, 300])
        attack = GreedyGapAttack(n=2, d=10)
        oracle = OracleGreedyGapAttack(n=2, d=10)
        first = attack.exploit(view)
        assert first == oracle.exploit(view) == 0
        view._record(first, 6, False)
        second = attack.exploit(view)
        assert second == oracle.exploit(view) == 0

    @pytest.mark.parametrize(
        "batches, expected",
        [
            # One fresh ID per step: instance 0 steps forward, then
            # lands just ahead of instance 1's prediction, which flips
            # the choice to instance 1.
            ([[(0, 6)], [(0, 302)]], [0, 0, 1]),
            # A backlog of several events at once, as at
            # RunSaturationAttack's hand-off to greedy.
            ([[(0, 6), (1, 301), (1, 302), (0, 7)]], [0, 0]),
            # A repeated ID changes owner: instance 1 collides on 6.
            ([[(0, 6)], [(1, 6)]], [0, 0, 0]),
            # A new instance appears after the probes.
            ([[(0, 6)], [(2, 298)]], [0, 0, 2]),
        ],
    )
    def test_incremental_ingestion_matches_oracle(self, batches, expected):
        view = make_view(1000, [5, 300])
        attack = GreedyGapAttack(n=2, d=10)
        oracle = OracleGreedyGapAttack(n=2, d=10)
        choices = [attack.exploit(view)]
        assert choices[0] == oracle.exploit(view)
        for batch in batches:
            for instance, value in batch:
                view._record(instance, value, False)
            choices.append(attack.exploit(view))
            assert choices[-1] == oracle.exploit(view)
        assert choices == expected

    def test_attack_is_at_least_as_strong_as_closest_pair_on_cluster(self):
        m, n, d = 1 << 14, 6, 192
        greedy = estimate_collision_probability(
            lambda mm, rr: ClusterGenerator(mm, rr),
            m,
            lambda rng: GreedyGapAttack(n=n, d=d),
            trials=400,
            seed=4,
        )
        closest = estimate_collision_probability(
            lambda mm, rr: ClusterGenerator(mm, rr),
            m,
            lambda rng: ClosestPairAttack(n=n, d=d),
            trials=400,
            seed=4,
        )
        assert greedy.probability >= closest.probability - 0.08


class TestRunSaturationAttack:
    def test_equalizes_before_exploiting(self):
        m = 1 << 14
        attack = RunSaturationAttack(n=4, d=40, equalize_fraction=1.0)
        game = Game(
            lambda mm, rr: ClusterGenerator(mm, rr),
            m,
            attack,
            seed=2,
            stop_on_collision=False,
        )
        result = game.run()
        demands = result.profile.demands
        assert max(demands) - min(demands) <= 1

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            RunSaturationAttack(n=2, d=10, equalize_fraction=1.5)


class _RecordingAdversary(Adversary):
    """Passes every decision through and keeps the sequence."""

    def __init__(self, inner):
        self.inner = inner
        self.decisions = []

    def begin(self, view):
        self.inner.begin(view)

    def next_request(self, view):
        choice = self.inner.next_request(view)
        self.decisions.append(choice)
        return choice


def _play_recorded(spec, m, attack, seed, stop_on_collision):
    recorder = _RecordingAdversary(attack)
    result = Game(
        SpecFactory(spec),
        m,
        recorder,
        seed=seed,
        stop_on_collision=stop_on_collision,
        keep_transcript=True,
    ).run()
    return recorder.decisions, result


class TestIncrementalGapIndexMatchesOracle:
    """The incremental attacks decide exactly as the full-rescan ones."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        spec=st.sampled_from(
            ["cluster", "cluster_star", "random", "bins:8", "bins_star"]
        ),
        m=st.sampled_from([64, 257, 1024]),
        n=st.integers(2, 16),
        extra=st.integers(0, 48),
        stop_on_collision=st.booleans(),
        equalize_fraction=st.one_of(st.none(), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**16),
    )
    def test_same_decisions_and_result(
        self, spec, m, n, extra, stop_on_collision, equalize_fraction, seed
    ):
        d = n + min(extra, 3 * n)
        if equalize_fraction is None:
            attack = GreedyGapAttack(n, d)
            oracle = OracleGreedyGapAttack(n, d)
        else:
            attack = RunSaturationAttack(n, d, equalize_fraction)
            oracle = OracleRunSaturationAttack(n, d, equalize_fraction)
        got = _play_recorded(spec, m, attack, seed, stop_on_collision)
        want = _play_recorded(spec, m, oracle, seed, stop_on_collision)
        assert got == want
