"""Self-tests of the benchmark harness.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402

# The cheapest case of the perm workload (about 0.5 s).
FAST = dict(run.WORKLOADS["perm"][-1])
SMALL_RIBBON = dict(run.WORKLOADS["ribbon"][1])


def _deadline() -> float:
    return time.perf_counter() + 120


def _doc(case: dict) -> dict:
    inv = run.run_case(case, run.load_expected(), 60)
    assert inv.error is None, inv.error
    return json.loads(inv.stdout)


def test_plan_depends_only_on_seed_and_keeps_expected_keys():
    for workload, cases in run.WORKLOADS.items():
        plan = run.make_plan(workload, 7)
        assert plan == run.make_plan(workload, 7)
        assert sorted(map(run.expected_key, plan)) == sorted(map(run.expected_key, cases))
    assert any(run.make_plan("perm", s) != run.make_plan("perm", 0) for s in range(1, 6))


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_sweep_matches_verify_output():
    doc = _doc({"cmd": "verify", "max_d": 3, "max_r": 2})
    keys = [f"{r['params']['g']}:{r['params']['mu']}:{r['params']['nu']}" for r in doc["results"]]
    assert keys == run.sweep(3, 2)


def test_corrupted_expected_value_fails_the_whole_workload():
    expected = copy.deepcopy(run.load_expected())
    key = run.expected_key(FAST)
    expected["compute"][key] = str(int(expected["compute"][key]) + 1)
    *_, attempted, failed, _ = run.run_untraced("perm", [FAST], expected, 0, _deadline())
    assert attempted >= 1 and failed / attempted == 1


def test_corrupted_sweep_and_chamber_values_fail_their_checks():
    expected = run.load_expected()
    verify = {"cmd": "verify", "max_d": 2, "max_r": 2}
    vdoc = _doc(verify)
    assert run.check_verify(vdoc, verify, expected) is None
    bad = copy.deepcopy(expected)
    key = run.sweep(2, 2)[-1]
    bad["sweep"][key] = bad["sweep"][key] + "1"
    assert run.check_verify(vdoc, verify, bad)

    cdoc = _doc(run.WARMUP)
    assert run.check_chambers(cdoc, run.WARMUP, expected) is None
    bad = copy.deepcopy(expected)
    bad["chambers"][run.expected_key(run.WARMUP)][0]["coefficients"] = {"1": "2"}
    assert run.check_chambers(cdoc, run.WARMUP, bad)


def test_added_output_keys_are_not_failures():
    expected = run.load_expected()
    verify = {"cmd": "verify", "max_d": 2, "max_r": 2}
    vdoc = _doc(verify)
    vdoc["stats"] = {"nodes": 1}
    for res in vdoc["results"]:
        res["timings_ms"] = {}
        res["values"]["character"] = res["values"]["permutation"]
    assert run.check_verify(vdoc, verify, expected) is None
    cdoc = _doc(run.WARMUP)
    cdoc["skipped"] = []
    cdoc["chambers"][0]["samples_needed"] = 2
    assert run.check_chambers(cdoc, run.WARMUP, expected) is None


def test_timeout_kills_the_child_and_counts_a_failure():
    t0 = time.perf_counter()
    inv = run.run_case(FAST, run.load_expected(), 0.05)
    assert inv.error.startswith("timeout")
    assert time.perf_counter() - t0 < 5
    invs = run.run_pass([FAST, FAST], run.load_expected(), time.perf_counter() + 0.05)
    assert len(invs) == 2 and all(inv.error for inv in invs)


def test_traced_counts_repeat_exactly():
    def counts():
        metrics, units, attempted, failed, _ = run.run_traced(
            "ribbon", [SMALL_RIBBON], run.load_expected(), _deadline()
        )
        assert failed == 0 and set(metrics) == set(tracer.PER_LAYER_UNITS)
        return {k: v for k, v in metrics.items() if units[k] == "count"}

    first = counts()
    assert all(first[k] > 0 for k in first)
    assert first == counts()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "perm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
