"""Tests for the ``ctc-search`` command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.datasets.paper_figures import figure_1_graph
from repro.graph.io import write_edge_list


@pytest.fixture
def figure1_file(tmp_path):
    path = tmp_path / "figure1.txt"
    write_edge_list(figure_1_graph(), path)
    return str(path)


class TestParser:
    def test_search_arguments(self):
        parser = build_parser()
        args = parser.parse_args(["search", "g.txt", "--query", "a", "b", "--method", "basic"])
        assert args.command == "search"
        assert args.query == ["a", "b"]
        assert args.method == "basic"

    def test_experiment_arguments(self):
        parser = build_parser()
        args = parser.parse_args(["experiment", "table2"])
        assert args.command == "experiment"
        assert args.name == "table2"

    def test_unknown_experiment_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["experiment", "fig99"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestSearchCommand:
    def test_lctc_search_prints_members(self, figure1_file, capsys):
        exit_code = main(
            ["search", figure1_file, "--query", "q1", "q2", "q3", "--method", "lctc", "--eta", "50"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "trussness:     4" in captured
        assert "v5" in captured
        assert "p1" not in captured.split("members:")[1]

    def test_basic_search(self, figure1_file, capsys):
        exit_code = main(["search", figure1_file, "--query", "q3", "--method", "basic"])
        assert exit_code == 0
        assert "method:        basic" in capsys.readouterr().out

    def test_truss_method_keeps_free_riders(self, figure1_file, capsys):
        main(["search", figure1_file, "--query", "q1", "q2", "q3", "--method", "truss"])
        members = capsys.readouterr().out.split("members:")[1]
        assert "p1" in members

    def test_engine_flags_parse_with_defaults(self):
        args = build_parser().parse_args(["search", "g.txt", "--query", "a", "--engine"])
        assert args.cache_size >= 1
        assert args.delta_threshold > 0
        assert args.mutate_every == 0

    def test_mutate_every_requires_engine(self, figure1_file):
        with pytest.raises(SystemExit):
            main(["search", figure1_file, "--query", "q1", "--mutate-every", "2"])

    def test_decomp_requires_engine(self, figure1_file):
        with pytest.raises(SystemExit):
            main(["search", figure1_file, "--query", "q1", "--decomp", "vector"])

    def test_unknown_decomp_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["search", "g.txt", "--query", "a", "--engine", "--decomp", "simd"]
            )

    def test_decomp_strategies_agree(self, figure1_file, capsys):
        """--decomp vector and --decomp bucket print the same community."""
        outputs = {}
        for decomp in ("vector", "bucket"):
            exit_code = main(
                ["search", figure1_file, "--query", "q1", "q2", "--method", "lctc",
                 "--eta", "50", "--engine", "--decomp", decomp]
            )
            assert exit_code == 0
            outputs[decomp] = capsys.readouterr().out
            assert f"decomp:        {decomp}" in outputs[decomp]
        assert outputs["vector"].split("members:")[1].split("decomp:")[0] == (
            outputs["bucket"].split("members:")[1].split("decomp:")[0]
        )

    def test_engine_defaults_to_csr_kernel(self, figure1_file, capsys):
        """--engine serves every repeat from one cached array snapshot."""
        exit_code = main(
            ["search", figure1_file, "--query", "q1", "q2", "--method", "lctc",
             "--eta", "50", "--engine", "--repeat", "3"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "engine cache:  2 hits, 1 misses" in out
        assert "kernel:" not in out

    def test_kernel_flag_removed(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["search", "g.txt", "--query", "a", "--engine", "--kernel", "dict"]
            )

    def test_dict_kernel_same_community(self, figure1_file, capsys):
        """--engine (array kernels) prints the dict path's community."""
        main(["search", figure1_file, "--query", "q1", "q2", "q3", "--method", "lctc",
              "--eta", "50", "--engine"])
        engine_out = capsys.readouterr().out
        main(["search", figure1_file, "--query", "q1", "q2", "q3", "--method", "lctc",
              "--eta", "50"])
        dict_out = capsys.readouterr().out
        assert engine_out.split("members:")[1].split("decomp:")[0] == (
            dict_out.split("members:")[1]
        )

    def test_unknown_query_node_is_a_clean_error(self, figure1_file, capsys):
        exit_code = main(["search", figure1_file, "--query", "zz"])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert captured.err.startswith("error: ")
        assert "zz" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_disconnected_query_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "two_triangles.txt"
        path.write_text("a b\nb c\na c\nx y\ny z\nx z\n")
        exit_code = main(["search", str(path), "--query", "a", "x", "--engine"])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_configuration_error_is_a_clean_error(self, figure1_file, monkeypatch, capsys):
        from repro import cli
        from repro.exceptions import ConfigurationError

        def misconfigured(*args, **kwargs):
            raise ConfigurationError("unknown method 'x'")

        monkeypatch.setattr(cli, "search", misconfigured)
        exit_code = main(["search", figure1_file, "--query", "q1"])
        assert exit_code == 1
        assert capsys.readouterr().err == "error: unknown method 'x'\n"

    def test_at_version_requires_engine(self, figure1_file):
        with pytest.raises(SystemExit):
            main(["search", figure1_file, "--query", "q1", "--at-version", "0"])

    def test_at_version_rejects_negative(self, figure1_file):
        with pytest.raises(SystemExit):
            main(["search", figure1_file, "--query", "q1", "--engine", "--at-version", "-1"])

    def test_window_requires_engine(self, figure1_file):
        with pytest.raises(SystemExit):
            main(["search", figure1_file, "--query", "q1", "--window", "10"])

    def test_window_rejects_negative(self, figure1_file):
        with pytest.raises(SystemExit):
            main(["search", figure1_file, "--query", "q1", "--engine", "--window", "-5"])

    def test_temporal_flags_parse_with_defaults(self):
        args = build_parser().parse_args(["search", "g.txt", "--query", "a", "--engine"])
        assert args.at_version is None
        assert args.window == 0

    def test_at_version_pins_reads_across_mutations(self, figure1_file, capsys):
        """Version-0 pinned queries keep answering while mutations advance
        the store, and the stats report the pinned reads."""
        exit_code = main(
            [
                "search", figure1_file, "--query", "q1", "q2",
                "--method", "lctc", "--eta", "50",
                "--engine", "--repeat", "6", "--mutate-every", "2",
                "--at-version", "0",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "time travel:" in captured
        assert "retained versions 0.." in captured

    def test_at_version_beyond_current_exits_cleanly(self, figure1_file):
        with pytest.raises(SystemExit, match="--at-version"):
            main(
                ["search", figure1_file, "--query", "q1",
                 "--engine", "--at-version", "999"]
            )

    def test_window_mode_reports_live_edges(self, figure1_file, capsys):
        exit_code = main(
            [
                "search", figure1_file, "--query", "q1", "q2",
                "--method", "lctc", "--eta", "50",
                "--engine", "--window", "300",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "window:" in captured
        assert "/300 live edges" in captured

    def test_mixed_workload_mode_reports_delta_applies(self, figure1_file, capsys):
        exit_code = main(
            [
                "search", figure1_file, "--query", "q1", "q2",
                "--method", "lctc", "--eta", "50",
                "--engine", "--repeat", "6", "--mutate-every", "2",
                "--cache-size", "2", "--delta-threshold", "0.5",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "delta applies" in captured
        assert "throughput:" in captured

    def test_workers_requires_engine(self, figure1_file):
        with pytest.raises(SystemExit, match="--workers requires --engine"):
            main(["search", figure1_file, "--query", "q1", "--workers", "2"])

    def test_serving_mode_requires_workers(self, figure1_file):
        with pytest.raises(SystemExit, match="--serving-mode requires --workers"):
            main(
                ["search", figure1_file, "--query", "q1",
                 "--engine", "--serving-mode", "thread"]
            )

    def test_workers_rejects_window(self, figure1_file):
        with pytest.raises(SystemExit, match="--workers does not combine"):
            main(
                ["search", figure1_file, "--query", "q1",
                 "--engine", "--workers", "2", "--window", "10"]
            )

    def test_process_mode_rejects_at_version(self, figure1_file):
        with pytest.raises(SystemExit, match="--serving-mode thread"):
            main(
                ["search", figure1_file, "--query", "q1", "--engine",
                 "--workers", "2", "--serving-mode", "process", "--at-version", "0"]
            )

    def test_serving_flags_parse_with_defaults(self):
        args = build_parser().parse_args(["search", "g.txt", "--query", "a", "--engine"])
        assert args.workers == 0
        assert args.serving_mode is None
        assert args.query_timeout is None

    def test_query_timeout_requires_workers(self, figure1_file):
        with pytest.raises(SystemExit, match="--query-timeout requires --workers"):
            main(
                ["search", figure1_file, "--query", "q1",
                 "--engine", "--query-timeout", "5"]
            )

    def test_query_timeout_must_be_positive(self, figure1_file):
        with pytest.raises(SystemExit, match="--query-timeout must be > 0"):
            main(
                ["search", figure1_file, "--query", "q1",
                 "--engine", "--workers", "2", "--query-timeout", "0"]
            )

    def test_query_timeout_serves_and_reports_fault_stats(self, figure1_file, capsys):
        exit_code = main(
            [
                "search", figure1_file, "--query", "q1", "q2",
                "--method", "lctc", "--eta", "50",
                "--engine", "--repeat", "4", "--workers", "2",
                "--query-timeout", "30",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "trussness:     4" in captured
        assert "faults:        0 crashes, 0 respawns, 0 requeued" in captured
        assert "0 timeouts" in captured

    def test_thread_serving_reports_coalescing(self, figure1_file, capsys):
        exit_code = main(
            [
                "search", figure1_file, "--query", "q1", "q2",
                "--method", "lctc", "--eta", "50",
                "--engine", "--repeat", "6", "--workers", "2",
                "--mutate-every", "3",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "serving:       mode=thread, workers=2" in captured
        assert "coalescing:" in captured
        assert "pins:" in captured
        assert "leases" in captured

    def test_thread_serving_same_community_as_plain_engine(self, figure1_file, capsys):
        base_args = ["search", figure1_file, "--query", "q1", "q2", "q3",
                     "--method", "lctc", "--eta", "50", "--engine"]
        main(base_args)
        plain_out = capsys.readouterr().out
        main(base_args + ["--workers", "2", "--repeat", "4"])
        serving_out = capsys.readouterr().out
        assert plain_out.split("members:")[1].split("decomp:")[0] == (
            serving_out.split("members:")[1].split("throughput:")[0]
        )

    def test_process_serving_reports_shard_stats(self, figure1_file, capsys):
        exit_code = main(
            [
                "search", figure1_file, "--query", "q1", "q2",
                "--method", "lctc", "--eta", "50",
                "--engine", "--repeat", "4", "--workers", "2",
                "--serving-mode", "process",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "serving:       mode=process, workers=2" in captured
        assert "coalescing:" in captured
        assert "trussness:     4" in captured


class TestDurabilityFlags:
    def test_data_dir_requires_engine(self, figure1_file):
        with pytest.raises(SystemExit, match="--data-dir requires --engine"):
            main(["search", figure1_file, "--query", "q1", "--data-dir", "/tmp/x"])

    def test_checkpoint_every_requires_data_dir(self, figure1_file):
        with pytest.raises(SystemExit, match="--checkpoint-every requires --data-dir"):
            main(
                ["search", figure1_file, "--query", "q1",
                 "--engine", "--checkpoint-every", "5"]
            )

    def test_fsync_requires_data_dir(self, figure1_file):
        with pytest.raises(SystemExit, match="--fsync requires --data-dir"):
            main(
                ["search", figure1_file, "--query", "q1",
                 "--engine", "--fsync", "always"]
            )

    def test_recover_requires_data_dir(self, figure1_file):
        with pytest.raises(SystemExit, match="--recover requires --data-dir"):
            main(["search", figure1_file, "--query", "q1", "--engine", "--recover"])

    def test_recover_rejects_graph_argument(self, figure1_file, tmp_path):
        with pytest.raises(SystemExit, match="omit the graph argument"):
            main(
                ["search", figure1_file, "--query", "q1", "--engine",
                 "--data-dir", str(tmp_path / "store"), "--recover"]
            )

    def test_graph_required_without_recover(self, tmp_path):
        with pytest.raises(SystemExit, match="edge-list file is required"):
            main(
                ["search", "--query", "q1", "--engine",
                 "--data-dir", str(tmp_path / "store")]
            )

    def test_data_dir_rejects_process_serving(self, figure1_file, tmp_path):
        with pytest.raises(SystemExit, match="--data-dir does not combine"):
            main(
                ["search", figure1_file, "--query", "q1", "--engine",
                 "--data-dir", str(tmp_path / "store"),
                 "--workers", "2", "--serving-mode", "process"]
            )

    def test_unknown_fsync_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["search", "g.txt", "--query", "a", "--engine",
                 "--data-dir", "d", "--fsync", "sometimes"]
            )

    def test_durable_search_reports_wal_stats(self, figure1_file, tmp_path, capsys):
        exit_code = main(
            [
                "search", figure1_file, "--query", "q1", "q2",
                "--method", "lctc", "--eta", "50",
                "--engine", "--repeat", "4", "--mutate-every", "2",
                "--data-dir", str(tmp_path / "store"), "--fsync", "off",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "durability:    fsync=off" in captured
        assert "appends" in captured
        assert (tmp_path / "store" / "wal.log").exists()

    def test_recover_round_trip_prints_recovery_footer(
        self, figure1_file, tmp_path, capsys
    ):
        """A durable run followed by --recover serves the same community."""
        store = str(tmp_path / "store")
        base = ["--query", "q1", "q2", "--method", "lctc", "--eta", "50",
                "--engine", "--data-dir", store]
        assert main(["search", figure1_file] + base + ["--checkpoint-every", "2",
                    "--repeat", "4", "--mutate-every", "2"]) == 0
        first = capsys.readouterr().out
        assert main(["search"] + base + ["--recover"]) == 0
        second = capsys.readouterr().out
        assert "recovery:" in second
        assert "durability:" in second
        # Mutations toggle edges an even number of times across the first
        # run, so the recovered store answers with the same community.
        def members(output: str) -> list[str]:
            lines = output.split("members:")[1].splitlines()
            return [line.strip() for line in lines if line.startswith("  ")]

        assert members(first) == members(second)

    def test_recover_from_wal_only(self, figure1_file, tmp_path, capsys):
        store = str(tmp_path / "store")
        base = ["--query", "q1", "q2", "--method", "lctc", "--eta", "50",
                "--engine", "--data-dir", store]
        assert main(["search", figure1_file] + base) == 0
        capsys.readouterr()
        assert main(["search"] + base + ["--recover"]) == 0
        out = capsys.readouterr().out
        assert "no checkpoint (WAL only)" in out

    def test_recover_missing_store_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="no durable state"):
            main(
                ["search", "--query", "q1", "--engine",
                 "--data-dir", str(tmp_path / "missing"), "--recover"]
            )

    def test_recover_foreign_checkpoint_format_exits_cleanly(
        self, figure1_file, tmp_path, capsys
    ):
        from repro.graph.disk import read_manifest, write_manifest

        store = tmp_path / "store"
        base = ["--query", "q1", "q2", "--engine", "--data-dir", str(store)]
        assert main(["search", figure1_file] + base + ["--checkpoint-every", "1",
                    "--repeat", "2", "--mutate-every", "1"]) == 0
        capsys.readouterr()
        checkpoint = max(path for path in store.iterdir() if path.name.startswith("checkpoint-"))
        manifest = read_manifest(checkpoint / "manifest.json")
        manifest["format_version"] = 999
        write_manifest(checkpoint / "manifest.json", manifest)
        with pytest.raises(SystemExit, match="--recover failed: .*format version 999"):
            main(["search"] + base + ["--recover"])

    def test_windowed_durable_recover(self, figure1_file, tmp_path, capsys):
        store = str(tmp_path / "store")
        args = ["--query", "q1", "q2", "--method", "lctc", "--eta", "50",
                "--engine", "--window", "300", "--data-dir", store]
        assert main(["search", figure1_file] + args) == 0
        capsys.readouterr()
        assert main(["search"] + args + ["--recover"]) == 0
        out = capsys.readouterr().out
        assert "window:" in out and "/300 live edges" in out
        assert "recovery:" in out


class TestExperimentCommand:
    def test_table2_runs(self, capsys):
        exit_code = main(["experiment", "table2"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "facebook-like" in captured
        assert "max_trussness" in captured

    def test_fig11_runs(self, capsys):
        exit_code = main(["experiment", "fig11"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "truss-G0" in captured
        assert "lctc" in captured
