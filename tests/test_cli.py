"""Command-line interface."""

import re

import pytest

from repro.cli import build_parser, main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "256-48" in out and "paper" in out


def test_run_engine(capsys):
    assert main(["run", "144-24", "--engine", "snicit", "--batch", "64"]) == 0
    out = capsys.readouterr().out
    assert "snicit on 144-24" in out
    assert "pre_convergence" in out


def test_run_with_threshold(capsys):
    assert main(["run", "144-24", "--batch", "64", "--threshold", "4"]) == 0


def test_compare(capsys):
    assert main(["compare", "144-24", "--batch", "64"]) == 0
    out = capsys.readouterr().out
    assert "categories agree" in out
    assert "xy2021" in out


def test_experiment_table1(capsys, tmp_path):
    out_file = tmp_path / "t1.txt"
    assert main(["experiment", "table1", "--out", str(out_file)]) == 0
    assert "Table 1" in out_file.read_text()


def test_generate_tsv(tmp_path, capsys):
    assert main(["generate", "144-24", str(tmp_path / "out"), "--seed", "3"]) == 0
    files = list((tmp_path / "out").glob("*.tsv"))
    assert len(files) == 24


def test_serve(capsys):
    assert main(["serve", "144-24", "--requests", "16", "--request-cols", "2",
                 "--max-batch", "16"]) == 0
    out = capsys.readouterr().out
    assert "served 16/16 requests" in out
    assert "throughput" in out and "latency" in out


def test_serve_sync_transport_paces_open_loop_arrivals(capsys):
    """--arrival-rate paces the sync router too, for one tenant or many."""
    assert main(["serve", "144-24", "--requests", "4", "--request-cols", "2",
                 "--max-batch", "4", "--arrival-rate", "500"]) == 0
    assert main(["serve", "--model", "a=144-24", "--model", "b=144-24",
                 "--requests", "4", "--request-cols", "2", "--max-batch", "4",
                 "--arrival-rate", "500"]) == 0
    captured = capsys.readouterr()
    out = captured.out
    assert "served 4/4 requests" in out and "served 8/8 requests" in out
    assert "[sync]" in out and "[async]" not in out
    assert "ignored" not in out + captured.err
    gaps = [float(g) for g in re.findall(r"([\d.]+) ms arrival gaps", out)]
    assert len(gaps) == 3 and all(g > 0 for g in gaps)


def test_bench_serve(tmp_path, capsys):
    out_file = tmp_path / "BENCH_serve.json"
    assert main(["bench-serve", "144-24", "--requests", "6", "--request-cols", "2",
                 "--max-batch", "12", "--out", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "speedup" in out
    assert out_file.exists()


def test_serve_centroid_reuse_flag(capsys):
    assert main(["serve", "144-24", "--requests", "16", "--request-cols", "4",
                 "--max-batch", "16", "--centroid-reuse"]) == 0
    out = capsys.readouterr().out
    assert "reuse" in out


def test_bench_serve_reuse_ab(tmp_path, capsys):
    out_file = tmp_path / "BENCH_serve.json"
    assert main(["bench-serve", "144-24", "--requests", "8", "--request-cols", "2",
                 "--max-batch", "8", "--stream", "repeat", "--centroid-reuse",
                 "--reuse-tolerance", "0", "--out", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "reuse on" in out
    assert "identical=True" in out


def test_bench_serve_rejects_benchmark_plus_tiers(tmp_path):
    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        main(["bench-serve", "144-24", "--tiers", "sdgc-deep",
              "--out", str(tmp_path / "b.json")])


def test_bench_serve_has_no_revise_ratio_flag():
    """bench-serve never read --revise-ratio; it is not accepted there."""
    with pytest.raises(SystemExit):
        build_parser().parse_args(["bench-serve", "--revise-ratio", "2"])
    for cmd in (["serve", "144-24"], ["warmup", "144-24"]):
        assert build_parser().parse_args([*cmd, "--revise-ratio", "2"]).revise_ratio == 2


def test_bench_serve_rejects_trace_without_tiers(tmp_path):
    """The trace covers the first tier's warm serve: no tier, no trace."""
    from repro.errors import ConfigError

    trace = tmp_path / "t.json"
    with pytest.raises(ConfigError):
        main(["bench-serve", "--tiers", "none", "--qos", "--trace", str(trace),
              "--out", str(tmp_path / "b.json")])
    assert not trace.exists() and not (tmp_path / "b.json").exists()


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["experiment", "table99"])


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
