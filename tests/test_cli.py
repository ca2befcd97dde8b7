"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def network_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    prefix = base / "net"
    code = main(
        ["generate", "--nodes", "300", "--seed", "5", "--out", str(prefix)]
    )
    assert code == 0
    return prefix


@pytest.fixture(scope="module")
def index_file(network_files, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-index") / "net.rbi"
    code = main(
        [
            "build",
            f"{network_files}.gr",
            "--out",
            str(out),
            "--m-max",
            "25",
            "--m-min",
            "5",
            "--p",
            "0.1",
        ]
    )
    assert code == 0
    assert out.exists()
    return out


class TestGenerate:
    def test_writes_both_files(self, network_files):
        assert (network_files.parent / "net.gr").exists()
        assert (network_files.parent / "net.co").exists()

    def test_build_with_verify(self, network_files, tmp_path, capsys):
        out = tmp_path / "verified.rbi"
        code = main(
            [
                "build",
                f"{network_files}.gr",
                "--out",
                str(out),
                "--m-max",
                "25",
                "--m-min",
                "5",
                "--p",
                "0.1",
                "--verify",
            ]
        )
        assert code == 0
        assert "verification ok" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "removed", [["--landmarks", "4"], ["--build-workers", "2"]]
    )
    def test_removed_build_options_are_rejected(
        self, network_files, tmp_path, capsys, removed
    ):
        out = tmp_path / "never.rbi"
        with pytest.raises(SystemExit) as exit_info:
            main(["build", f"{network_files}.gr", "--out", str(out), *removed])
        assert exit_info.value.code == 2  # argparse usage error
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_style(self, tmp_path):
        prefix = tmp_path / "grid"
        assert main(
            [
                "generate",
                "--nodes",
                "100",
                "--style",
                "grid",
                "--seed",
                "1",
                "--out",
                str(prefix),
            ]
        ) == 0


class TestBuildAndQuery:
    def test_query_runs(self, network_files, index_file, capsys):
        from repro.graph.io import read_dimacs_gr

        graph = read_dimacs_gr(f"{network_files}.gr")
        nodes = sorted(graph.nodes())
        code = main(
            [
                "query",
                f"{network_files}.gr",
                str(index_file),
                "--source",
                str(nodes[0]),
                "--target",
                str(nodes[-1]),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "approximate skyline paths" in out

    def test_query_with_exact(self, network_files, index_file, capsys):
        from repro.graph.io import read_dimacs_gr

        graph = read_dimacs_gr(f"{network_files}.gr")
        nodes = sorted(graph.nodes())
        code = main(
            [
                "query",
                f"{network_files}.gr",
                str(index_file),
                "--source",
                str(nodes[1]),
                "--target",
                str(nodes[-2]),
                "--exact",
                "--exact-budget",
                "60",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "exact BBS" in out

    def test_query_missing_node_fails_cleanly(
        self, network_files, index_file, capsys
    ):
        code = main(
            [
                "query",
                f"{network_files}.gr",
                str(index_file),
                "--source",
                "999999",
                "--target",
                "0",
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestServeBatch:
    def test_zero_workers_rejected(self, network_files, capsys):
        code = main(
            ["serve-batch", f"{network_files}.gr", "--workers", "0"]
        )
        assert code == 1
        assert "--workers must be at least 1" in capsys.readouterr().err


class TestStats:
    def test_graph_stats(self, network_files, capsys):
        assert main(["stats", f"{network_files}.gr"]) == 0
        assert "graph" in capsys.readouterr().out

    def test_graph_and_index_stats(self, network_files, index_file, capsys):
        assert (
            main(["stats", f"{network_files}.gr", "--index", str(index_file)])
            == 0
        )
        out = capsys.readouterr().out
        assert "index" in out and "levels" in out


class TestIndexCommands:
    def test_build_reports_the_saved_file_size(
        self, network_files, tmp_path, capsys
    ):
        from repro.eval.reporting import fmt_bytes

        out = tmp_path / "sized.rbi"
        code = main(
            ["build", f"{network_files}.gr", "--out", str(out),
             "--m-max", "25", "--m-min", "5", "--p", "0.1"]
        )
        assert code == 0
        assert f"{fmt_bytes(out.stat().st_size)} -> {out}" in (
            capsys.readouterr().out
        )

    def test_lazy_load_faults_in_no_level(
        self, network_files, index_file, monkeypatch, capsys
    ):
        from repro.core.index import BackboneIndex

        loaded = []
        load = BackboneIndex.load

        def spy(*args, **kwargs):
            index = load(*args, **kwargs)
            loaded.append(index)
            return index

        monkeypatch.setattr(BackboneIndex, "load", spy)
        code = main(
            ["index", "load", f"{network_files}.gr", str(index_file), "--lazy"]
        )
        assert code == 0
        [index] = loaded
        assert index.levels.materialized_count() == 0
        assert f"L={index.height}" in capsys.readouterr().out

    def test_save_resaves_a_store(self, network_files, index_file, tmp_path):
        from repro.store import IndexStore

        out = tmp_path / "resaved.rbi"
        code = main(
            ["index", "save", f"{network_files}.gr", str(index_file),
             "--out", str(out)]
        )
        assert code == 0
        original, resaved = IndexStore(index_file), IndexStore(out)
        assert resaved.version == 2
        assert list(resaved.sections) == list(original.sections)
        # Only the params section differs: it records the build time.
        for tag in original.sections:
            if tag != "params":
                assert resaved.section_bytes(tag) == (
                    original.section_bytes(tag)
                )

    def test_format_option_is_gone(self, network_files, index_file, tmp_path):
        with pytest.raises(SystemExit):
            main(
                ["index", "save", f"{network_files}.gr", str(index_file),
                 "--out", str(tmp_path / "x.json"), "--format", "json"]
            )

    def test_inspect_rejects_a_non_store_file(self, tmp_path, capsys):
        path = tmp_path / "index.json"
        path.write_text('{"format": "repro-backbone-index"}')
        assert main(["index", "inspect", str(path)]) == 1
        assert "not a backbone index store" in capsys.readouterr().err


class TestDatasets:
    def test_lists_nine(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "C9_NY" in out and "L_NA" in out
