"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import puiseux.semiring  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def few_probes(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(run, "PROBE_SAMPLES", 1)


def _result(capsys, *argv) -> dict:
    assert run.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_generates_same_queries(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) != workloads.generate(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_seeds_give_the_same_metric_names(capsys, workload, trace):
    names = []
    for seed in ("1", "2"):
        doc = _result(capsys, "--workload", workload, "--seed", seed, "--seconds", "0.4",
                      "--trace", trace)
        assert set(doc) == {"correct", "attempted", "failed", "metrics"}
        assert doc["correct"] is True and doc["attempted"] >= 1
        names.append(sorted(doc["metrics"]))
    declared = sorted(m["name"] for m in SPEC["per_layer" if trace == "1" else "end_to_end"])
    assert names[0] == names[1] == declared


def test_metric_names_are_well_formed():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)


def test_planted_wrong_answer_raises_error_rate(monkeypatch):
    clean, *_ = run.untraced("semiring-mix", 3, 1.0)
    right = puiseux.semiring.nm_membership
    monkeypatch.setattr(puiseux.semiring, "nm_membership", lambda N, x: not right(N, x))
    planted, checked, _ = run.untraced("semiring-mix", 3, 1.0)
    assert planted["correct_rate"] < clean["correct_rate"]
    assert not checked["correct"]
    assert any(q[0] == "nm_membership" for q, _ in checked["unknown"])


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "factor-mix",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
