"""Unit tests for the algorithm registry and the CLI."""

import pytest

from repro.cli import build_parser, main
from repro.core.bins import BinsGenerator
from repro.core.cluster import ClusterGenerator
from repro.core.registry import (
    available_algorithms,
    make_generator,
    register,
)
from repro.core.skew_aware import SkewAwareGenerator
from repro.errors import ConfigurationError
from repro.simulation.seeds import rng_for


class TestRegistry:
    def test_known_names_present(self):
        names = available_algorithms()
        for expected in (
            "random", "cluster", "bins", "cluster_star", "bins_star",
            "skew",
        ):
            assert expected in names

    def test_simple_spec(self):
        generator = make_generator("cluster", 100, rng_for(1))
        assert isinstance(generator, ClusterGenerator)

    def test_parameterized_spec(self):
        generator = make_generator("bins:8", 128, rng_for(1))
        assert isinstance(generator, BinsGenerator)
        assert generator.k == 8

    def test_two_parameter_spec(self):
        generator = make_generator("skew:4:32", 1024, rng_for(1))
        assert isinstance(generator, SkewAwareGenerator)
        assert (generator.i, generator.j) == (4, 32)

    def test_star_aliases(self):
        assert make_generator("cluster*", 64, rng_for(1)).name == (
            "cluster_star"
        )
        assert make_generator("bins*", 64, rng_for(1)).name == "bins_star"

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            make_generator("nonsense", 100)

    def test_bad_parameter(self):
        with pytest.raises(ConfigurationError):
            make_generator("bins:huge", 100)

    def test_register_rejects_colon(self):
        with pytest.raises(ConfigurationError):
            register("my:thing", ClusterGenerator)


class TestCLI:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["generate", "cluster", "--count", "3"])
        assert args.command == "generate"

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "cluster" in out and "E12" in out

    def test_generate(self, capsys):
        assert main(
            ["generate", "cluster", "--m", "1000", "--count", "4",
             "--seed", "3"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        values = [int(line) for line in lines]
        assert all(0 <= v < 1000 for v in values)

    def test_generate_hex(self, capsys):
        assert main(
            ["generate", "random", "--m", str(1 << 32), "--count", "2",
             "--hex"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(len(line) == 8 for line in lines)

    def test_analyze(self, capsys):
        assert main(
            ["analyze", "cluster", "4,4", "--m", "1024"]
        ) == 0
        out = capsys.readouterr().out
        assert "p_cluster" in out
        assert "0.0068" in out  # (4+4-1)/1024

    def test_analyze_unknown_algorithm_fails_cleanly(self, capsys):
        assert main(["analyze", "wat", "4,4"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, entry",
        [
            (["simulate", "cluster", "8,,8"], "''"),
            (["simulate", "cluster", ""], "''"),
            (["analyze", "cluster", "8,x"], "'x'"),
        ],
    )
    def test_malformed_profile_fails_cleanly(self, capsys, argv, entry):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: demand profile")
        assert f"entry {entry}" in err

    def test_simulate(self, capsys):
        assert main(
            ["simulate", "cluster", "16,16", "--m", "256",
             "--trials", "200", "--seed", "1"]
        ) == 0
        assert "oblivious" in capsys.readouterr().out

    def test_simulate_attack(self, capsys):
        assert main(
            ["simulate", "cluster", "64,64,64,64", "--m", "4096",
             "--trials", "100", "--attack", "closest_pair"]
        ) == 0
        assert "closest_pair" in capsys.readouterr().out
