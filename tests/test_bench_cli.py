"""The legacy headline script's CPU defaults and scaling legs. The child
runner is replaced, so no process or Ray session starts."""

from __future__ import annotations

import importlib.util
import os
import pathlib

import pytest


def _load_bench(monkeypatch):
    monkeypatch.delenv("RAY_GRAFT_CPUS", raising=False)
    path = pathlib.Path(__file__).parent.parent / "bench.py"
    spec = importlib.util.spec_from_file_location("bench_under_test", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_num_cpus_defaults_to_the_affinity_set(monkeypatch):
    bench = _load_bench(monkeypatch)
    assert bench.NUM_CPUS == len(os.sched_getaffinity(0))
    assert bench.AFFINITY == sorted(os.sched_getaffinity(0))


@pytest.mark.parametrize("n_cpus", [1, 4, 8, 32])
def test_scaling_skips_levels_wider_than_the_affinity_set(monkeypatch, n_cpus):
    bench = _load_bench(monkeypatch)
    monkeypatch.setattr(bench, "AFFINITY", list(range(n_cpus)))
    monkeypatch.setenv("BENCH_SCALING_LEVELS", "2,4,8")
    monkeypatch.setenv("BENCH_SCALING_PASSES", "2")
    calls = []

    def fake_child(sf_dir, cpus):
        calls.append(cpus)
        return {"num_cpus": cpus, "rows": 100, "sec": 1.0,
                "docs_per_sec": 100.0 * cpus * calls.count(cpus)}

    monkeypatch.setattr(bench, "run_child_process", fake_child)
    out = bench.run_scaling("/nonexistent/sf0.1")
    measured = [c for c in (2, 4, 8) if c <= n_cpus]
    assert calls == measured * 2
    runs = {r["num_cpus"]: r for r in out["runs"]}
    for c in (2, 4, 8):
        if c in measured:
            assert runs[c]["docs_per_sec"] == 200.0 * c
        else:
            assert runs[c]["docs_per_sec"] == "not measured"
    if n_cpus >= 8:
        assert out["value"] == 1.0 and out["speedup"] == 4.0
        assert [p["efficiency"] for p in out["curve"]] == [1.0, 1.0]
    else:
        assert out["value"] == out["speedup"] == "not measured"
    if n_cpus == 4:
        assert [p["efficiency"] for p in out["curve"]] == [1.0, "not measured"]


def test_scaling_child_is_pinned_inside_the_affinity_set(monkeypatch):
    bench = _load_bench(monkeypatch)
    monkeypatch.setattr(bench, "AFFINITY", [2, 5, 7])
    monkeypatch.setattr(bench.shutil, "which", lambda name: "/usr/bin/" + name)
    seen = {}

    class Done:
        stdout = '{"num_cpus": 2}\n'

    def fake_run(cmd, **kwargs):
        seen["cmd"] = cmd
        return Done()

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    assert bench.run_child_process("/x/sf0.1", 2) == {"num_cpus": 2}
    assert seen["cmd"][:3] == ["taskset", "-c", "2,5"]
