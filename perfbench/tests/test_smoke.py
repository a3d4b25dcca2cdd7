"""Smoke test of the benchmark harness at its smallest sizes.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(stdout: str) -> tuple[dict, dict]:
    lines = stdout.strip().splitlines()
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def _check_result(result: dict, names: list[str]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(names)
    for m in result["metrics"].values():
        assert isinstance(m["value"], float) and m["unit"]


def test_untraced_run_prints_every_end_to_end_metric():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "map", "--seed", "3",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    context, result = _result(out.stdout)
    _check_result(result, [m["name"] for m in SPEC["end_to_end"]])
    assert context["seed"] == 3 and context["machine"]["nproc"] >= 1
    assert result["metrics"]["edge_done_frac"]["value"] == 1.0


def test_traced_run_prints_every_per_layer_metric(monkeypatch, capsys):
    # One interior stratum and the instant edge point.
    tiny = run.Workload("interior", False, 1, (run.EDGE_POINTS[4],))
    monkeypatch.setitem(run.WORKLOADS, "tiny", tiny)
    monkeypatch.setattr(run, "OUT_DIR", ROOT / ".bench_out" / "smoke")
    assert run.main(["--workload", "tiny", "--seconds", "0", "--trace", "1"]) == 0
    context, result = _result(capsys.readouterr().out)
    _check_result(result, [m["name"] for m in SPEC["per_layer"]])
    assert result["metrics"]["edge.untyped"]["value"] == 1.0  # from the traced half
    assert (ROOT / ".bench_out" / "smoke" / "trace-tiny-seed1.json").is_file()


def test_edge_point_past_budget_is_a_timeout_and_reaped():
    rec = run.run_edge_point(1e-4, 0.8, budget=0.2)
    assert rec["outcome"] == "timeout"
    assert rec["wall_s"] == rec["time_s"] == 0.2
    assert run.edge_record_ok(rec)


def test_map_check_catches_a_changed_label():
    res = run.run_scan(run.ScanConfig(eps_count=run.MAP_GRID, q_count=run.MAP_GRID))
    bad = dataclasses.replace(res.records[0], region="Focus")
    res = dataclasses.replace(res, records=[bad] + res.records[1:])
    bench = run.Run("map", 1, Tracer(enabled=False), json.loads(
        (BENCH_DIR / "reference.json").read_text()))
    texts = {"csv": run.scan_to_csv(res), "json": run.scan_to_json(res), "svg": ""}
    assert "region labels differ" in bench.check_map(res, texts)


def test_self_time_subtracts_children():
    tr = Tracer(enabled=True)
    tr.spans = [
        {"id": 0, "parent": None, "layer": "bench", "start": 0.0, "end": 1.0},
        {"id": 1, "parent": 0, "layer": "scan", "start": 0.1, "end": 0.5},
        {"id": 2, "parent": 1, "layer": "shooting", "start": 0.2, "end": 0.3},
    ]
    self_s = tr.self_seconds()
    assert self_s["bench"] == pytest.approx(0.6)
    assert self_s["scan"] == pytest.approx(0.3)
    assert self_s["shooting"] == pytest.approx(0.1)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "map", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "{" not in out.stdout
