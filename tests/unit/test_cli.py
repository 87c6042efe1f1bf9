"""Unit tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import EXPERIMENT_INVENTORY, build_parser, main


class TestParser:
    def test_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.command == "demo"
        assert args.key_size == 256
        assert args.mode == "secure"

    def test_query_arguments(self):
        args = build_parser().parse_args(
            ["query", "--n", "12", "--m", "2", "--k", "4", "--mode", "basic"])
        assert (args.n, args.m, args.k, args.mode) == (12, 2, 4, "basic")

    def test_project_requires_known_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["project", "--figure", "9z"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert (args.shards, args.batch_size, args.clients) == (2, 4, 4)
        assert args.backend == "process"

    def test_query_accepts_sharded_mode(self):
        args = build_parser().parse_args(["query", "--mode", "sharded"])
        assert args.mode == "sharded"

    def test_precompute_knobs(self):
        args = build_parser().parse_args(["query", "--precompute", "3"])
        assert args.precompute == 3
        args = build_parser().parse_args(["serve", "--precompute", "2"])
        assert args.precompute == 2

    def test_party_arguments(self):
        args = build_parser().parse_args(
            ["party", "--role", "c2", "--listen", "0.0.0.0:9001",
             "--port-file", "c2.port", "--pool-cache", "c2.pools"])
        assert args.command == "party"
        assert args.role == "c2"
        assert args.listen == "0.0.0.0:9001"
        assert args.port_file == "c2.port"
        assert args.pool_cache == "c2.pools"
        with pytest.raises(SystemExit):  # --role is mandatory
            build_parser().parse_args(["party"])

    def test_query_accepts_distributed_mode_and_connect(self):
        args = build_parser().parse_args(["query", "--mode", "distributed"])
        assert args.mode == "distributed"
        args = build_parser().parse_args(
            ["query", "--connect-c1", "127.0.0.1:9000",
             "--connect-c2", "127.0.0.1:9001"])
        assert args.connect_c1 == "127.0.0.1:9000"
        assert args.connect_c2 == "127.0.0.1:9001"

    @pytest.mark.parametrize("mode", ["basic", "secure"])
    def test_connected_query_refuses_an_out_of_schema_query(self, mode):
        """The connected path checks Bob's query before it provisions,
        connects or encrypts anything (the addresses are never dialled)."""
        from repro.cli import _run_query_connected
        from repro.db.schema import Schema
        from repro.db.table import Table
        from repro.exceptions import QueryError

        args = build_parser().parse_args(
            ["query", "--mode", mode, "--connect-c1", "127.0.0.1:1",
             "--connect-c2", "127.0.0.1:2"])
        table = Table.from_rows(Schema.uniform(2, 7), [[0, 7], [7, 0]])
        with pytest.raises(QueryError, match="outside the schema"):
            _run_query_connected(args, table, [8, 0])

    def test_connect_flags_must_come_in_pairs(self):
        exit_code = main(["query", "--connect-c1", "127.0.0.1:9000"])
        assert exit_code == 2


class TestInventoryCommand:
    def test_lists_every_figure(self, capsys):
        exit_code = main(["inventory"])
        assert exit_code == 0
        output = capsys.readouterr().out
        for entry in EXPERIMENT_INVENTORY:
            assert entry["figure"] in output
        assert "bench_fig3_parallel" in output


class TestCalibrateCommand:
    def test_calibrate_small_key(self, capsys):
        exit_code = main(["calibrate", "--key-size", "128", "--samples", "5"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "encrypt (ms)" in output
        assert "128" in output

    def test_calibrate_two_keys_reports_slowdown(self, capsys):
        exit_code = main(["calibrate", "--key-size", "128", "--key-size", "256",
                          "--samples", "5"])
        assert exit_code == 0
        assert "slowdown 128 -> 256" in capsys.readouterr().out


class TestQueryCommand:
    def test_basic_query_round_trip(self, capsys):
        exit_code = main(["query", "--n", "10", "--m", "2", "--k", "2",
                          "--l", "7", "--key-size", "128", "--mode", "basic",
                          "--seed", "3"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "matches plaintext answer: True" in output

    def test_secure_query_round_trip(self, capsys):
        exit_code = main(["query", "--n", "6", "--m", "2", "--k", "1",
                          "--l", "7", "--key-size", "128", "--mode", "secure",
                          "--seed", "4"])
        assert exit_code == 0
        assert "matches plaintext answer: True" in capsys.readouterr().out

    def test_precomputed_query_round_trip(self, capsys):
        exit_code = main(["query", "--n", "10", "--m", "2", "--k", "2",
                          "--l", "7", "--key-size", "128", "--mode", "basic",
                          "--precompute", "1", "--seed", "3"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "matches plaintext answer: True" in output
        assert "offline" in output


class TestDemoCommand:
    def test_demo_basic_mode(self, capsys):
        exit_code = main(["demo", "--key-size", "128", "--mode", "basic"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "matches plaintext answer: True" in output
        assert "neighbor 1" in output


class TestServeCommand:
    def test_serve_round_trip_matches_oracle(self, capsys):
        exit_code = main(["serve", "--n", "12", "--m", "2", "--k", "2",
                          "--l", "7", "--key-size", "128", "--shards", "2",
                          "--workers", "1", "--backend", "serial",
                          "--batch-size", "2", "--clients", "2",
                          "--queries", "4", "--pool-size", "8", "--seed", "5"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "all answers match plaintext oracle: True" in output
        assert "queries/s" in output

    def test_serve_with_precompute_engine(self, capsys):
        exit_code = main(["serve", "--n", "10", "--m", "2", "--k", "2",
                          "--l", "7", "--key-size", "128", "--shards", "2",
                          "--workers", "1", "--backend", "serial",
                          "--batch-size", "2", "--clients", "2",
                          "--queries", "2", "--pool-size", "0",
                          "--precompute", "2", "--seed", "6"])
        assert exit_code == 0
        assert "all answers match plaintext oracle: True" in \
            capsys.readouterr().out


class TestProjectCommand:
    @pytest.mark.parametrize("figure", ["2a", "2c", "2f", "3"])
    def test_project_prints_series(self, capsys, figure):
        exit_code = main(["project", "--figure", figure, "--samples", "5"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert output.startswith("== ")
        assert "SkNN" in output
        assert any(character.isdigit() for character in output)
