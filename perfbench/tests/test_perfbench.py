"""Tests of the benchmark itself (not part of the tier-1 suite).

    PYTHONPATH=src python3 -m pytest perfbench/tests -q

The smoke tests run every workload in both modes with ``--seconds 0``
(the shortest run each workload allows) and check that every metric
named in ``BENCHMARK.json`` is emitted with its unit. The fault tests
make a sink drop one tuple and check that the run is reported as
incorrect.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from repro.workloads import NullSinkBolt, SequenceCheckBolt  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run_command(*args: str, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_declared_metric(workload, trace):
    proc = _run_command("--workload", workload, "--seed", "3",
                        "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], float)
        if not trace:
            assert emitted["value"] > 0, metric["name"]
    for metric in declared:
        # The human-readable report names every metric with its unit.
        assert metric["name"] in proc.stdout


def test_declared_units_match_the_runner():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        run.END_TO_END


def _drop_one(cls, monkeypatch):
    """Make every ``cls`` sink lose one tuple: the first of its tenth
    batch."""
    original = cls.execute_batch

    def lossy(self, stream_tuples, collector):
        self.batches_seen = getattr(self, "batches_seen", 0) + 1
        if self.batches_seen == 10 and stream_tuples:
            stream_tuples = stream_tuples[1:]
        return original(self, stream_tuples, collector)

    monkeypatch.setattr(cls, "execute_batch", lossy)


@pytest.mark.parametrize("workload,sink", [
    ("fwd-train", SequenceCheckBolt),
    ("bcast-remote", NullSinkBolt),
])
def test_sink_dropping_one_tuple_fails_the_run(workload, sink, monkeypatch,
                                               capsys):
    _drop_one(sink, monkeypatch)
    code = run.main(["--workload", workload, "--seed", "5",
                     "--seconds", "0", "--trace", "0"])
    out = capsys.readouterr().out
    result = _last_json(out)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert "FAIL" in out


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run_command("--workload", "fwd-train", "--seed", "1",
                        "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
