"""Unit tests for the command-line interface."""

import io
import platform

import pytest

from repro.cli import EXPERIMENTS, build_parser, cmd_list_experiments, main


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_list_experiments():
    code, text = run_cli(["list-experiments"])
    assert code == 0
    names = text.split()
    assert "fig9" in names
    assert "table5" in names
    assert names == sorted(names)
    assert set(names) == set(EXPERIMENTS)


def test_parser_rejects_unknown_experiment():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["experiment", "fig99"])


def test_parser_requires_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_experiment_table5_renders():
    code, text = run_cli(["experiment", "table5"])
    assert code == 0
    assert "Table 5" in text
    assert "Dynamic provisioning" in text


def test_wordcount_typhoon_runs():
    code, text = run_cli(["wordcount", "--rate", "500", "--duration", "8",
                          "--hosts", "2", "--splits", "1", "--counts", "1"])
    assert code == 0
    assert "system: typhoon" in text
    assert "source" in text and "count" in text


def test_wordcount_storm_runs():
    code, text = run_cli(["wordcount", "--system", "storm", "--rate", "500",
                          "--duration", "8", "--hosts", "1",
                          "--splits", "1", "--counts", "1"])
    assert code == 0
    assert "system: storm" in text


def test_bench_requires_perf_flag():
    code, text = run_cli(["bench"])
    assert code == 2
    assert "--perf" in text


def test_bench_perf_micro_runs_and_writes_json(tmp_path):
    report = tmp_path / "hotpath.json"
    code, text = run_cli(["bench", "--perf", "--no-e2e",
                          "--iterations", "2000",
                          "--output", str(report)])
    assert code == 0
    assert "table_lookup" in text
    assert "combined" in text
    import json
    data = json.loads(report.read_text())
    assert data["benchmark"] == "hotpath"
    assert set(data["ops"]) == {"table_lookup", "encode", "decode",
                                "decode_train", "decode_train_variable"}
    assert data["environment"]["python"] == platform.python_version()
    assert data["ops"]["table_lookup"]["cache_hit_rate"] > 0.95


def test_perf_gate_covers_the_variable_stride_decode_row():
    from repro.bench.perf import check_gates

    result = {
        "ops": {"decode_train": {"speedup": 2.0},
                "decode_train_variable": {"speedup": 1.1},
                "table_lookup": {"cache_hit_rate": 1.0}},
    }
    assert check_gates(result) == []
    result["ops"]["decode_train_variable"]["speedup"] = 0.9
    (failure,) = check_gates(result)
    assert failure.startswith("decode_train_variable speedup 0.90x < 1.00x")
    result["profile"] = {}   # wall-clock floors are skipped when profiled
    assert check_gates(result) == []


def test_perf_gate_fails_when_tunnel_replicas_decode_twice():
    from repro.bench.perf import check_gates

    result = {
        "profile": {},   # skips the wall-clock floors
        "ops": {"decode_train": {"speedup": 1.0},
                "table_lookup": {"cache_hit_rate": 1.0}},
        "e2e": {"fig8_forwarding": {"steady_state_hit_rate": 1.0,
                                    "tuples_per_wall_sec": 0.0},
                "fig9_broadcast": {"decodes_per_tunnel_train": 1.0}},
    }
    assert check_gates(result) == []
    result["e2e"]["fig9_broadcast"]["decodes_per_tunnel_train"] = 2.0
    (failure,) = check_gates(result)
    assert "decodes per tunnel train 2.00 > 1.0" in failure
