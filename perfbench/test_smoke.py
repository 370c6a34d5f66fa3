"""Smoke test for the benchmark: each workload at a tiny size.

Checks that every metric BENCHMARK.json names is printed with its unit,
that an untraced run has no tracer wrappers installed, that a broken
output is counted as a failed episode, and that a directory without the
library's sources makes the benchmark fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run


@pytest.fixture
def workloads(monkeypatch, tmp_path):
    mod = run.import_workloads()
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    for cls in mod.WORKLOADS.values():
        monkeypatch.setattr(cls, "check_episodes", 2)
    monkeypatch.setattr(mod.PlanQueries, "n_maps", 1)
    return mod


def _result(capsys, name: str, trace: int) -> dict:
    assert run.main(["--workload", name, "--seed", "1", "--seconds", "0", "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _wrapped(mod) -> list[bool]:
    import tracer

    return [hasattr(getattr(t.owner, t.attr), "__wrapped__") for t in tracer.layer_targets(mod)]


@pytest.mark.parametrize("name", [w["name"] for w in run.SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workloads, capsys, name):
    for trace, table in ((0, run.SPEC["end_to_end"]), (1, run.SPEC["per_layer"])):
        result = _result(capsys, name, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in table}
    assert not any(_wrapped(workloads))


def test_untraced_run_has_no_wrappers(workloads, capsys, monkeypatch):
    seen = []
    episode = workloads.PickupTrial.episode

    def spy(self, i):
        seen.append(_wrapped(workloads))
        return episode(self, i)

    monkeypatch.setattr(workloads.PickupTrial, "episode", spy)
    _result(capsys, "pickup_trial", 0)
    assert seen and not any(any(w) for w in seen)
    seen.clear()
    _result(capsys, "pickup_trial", 1)
    assert any(all(w) for w in seen), "the spy must see the traced runs' wrappers"
    assert not any(_wrapped(workloads))


def test_broken_outputs_count_as_failed(workloads, capsys, monkeypatch):
    astar = workloads.astar

    def off_by_a_meter(*args, **kwargs):
        plan = astar(*args, **kwargs)
        return None if plan is None else type(plan)(plan.waypoints, plan.cost + 1.0)

    monkeypatch.setattr(workloads, "astar", off_by_a_meter)
    result = _result(capsys, "plan_queries", 0)
    assert result["correct"] is False and result["failed"] == result["attempted"]

    def raises(self, i):
        raise RuntimeError("injected")

    monkeypatch.setattr(workloads.PickupTrial, "episode", raises)
    result = _result(capsys, "pickup_trial", 0)
    assert result["correct"] is False and result["failed"] == result["attempted"]


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    bench = os.path.dirname(os.path.abspath(run.__file__))
    shutil.copytree(bench, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pickup_trial", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
