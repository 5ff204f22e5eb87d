"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import re

import run
from workloads import candidate_count, round_plan

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_candidate_counts():
    assert candidate_count(64) == 5040
    assert candidate_count(1024) == 1_275_856


def test_metric_names_match_the_pattern_and_the_harness():
    e2e = [m["name"] for m in BENCHMARK["end_to_end"]]
    layers = [m["name"] for m in BENCHMARK["per_layer"]]
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    for name in e2e + layers + workloads:
        assert NAME.fullmatch(name), name
    assert e2e == list(run.END_TO_END)
    assert layers == list(run.PER_LAYER)
    assert workloads == list(run.WORKLOADS)


def _bounds_run(tmp_path, monkeypatch, capsys, corrupt: bool):
    """A bounds-grid run cut to three tables, against a possibly corrupted record."""
    expected = json.loads(run.EXPECTED.read_text(encoding="utf-8"))
    if corrupt:
        expected["bounds"]["2,1"] = "0" * 16
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected), encoding="utf-8")
    monkeypatch.setattr(run, "EXPECTED", path)
    monkeypatch.setattr(run, "round_plan", lambda w, rng: [
        inv for inv in round_plan(w, rng) if inv["key"] in ("2,1", "2,9", "3,2")])
    assert run.main(["--workload", "bounds-grid", "--seed", "3", "--seconds", "0"]) == 0
    *_, detail, result = capsys.readouterr().out.splitlines()
    return json.loads(detail)["detail"], json.loads(result)


def test_recorded_outputs_pass(tmp_path, monkeypatch, capsys):
    detail, result = _bounds_run(tmp_path, monkeypatch, capsys, corrupt=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 3
    assert detail["failed_share"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_corrupted_digest_counts_as_failed(tmp_path, monkeypatch, capsys):
    detail, result = _bounds_run(tmp_path, monkeypatch, capsys, corrupt=True)
    assert not result["correct"] and result["failed"] == 1
    assert detail["failed_share"] > 0
