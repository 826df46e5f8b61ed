"""Smoke test of the end-to-end benchmark at ``--quick`` size.

Not in tier-1 ``testpaths``; run it with
``python3 -m pytest benchmarks/e2e/test_e2e_smoke.py``.  Every run is a
fresh process, exactly as the driver starts one.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [p for p in (ROOT, os.path.join(ROOT, "src")) if p not in sys.path]

from benchmarks.e2e import metrics as M  # noqa: E402

EXACT = [name for name, _, _, bound in M.END_TO_END if bound == 0.0] + [
    "wire_bytes_per_record", "history_bytes_per_machine",
]


def run(workload, seed, trace=0):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "__main__.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


@pytest.mark.parametrize("workload", ["fleet_scan", "wire_tcp"])
def test_exact_counts_repeat_per_seed_and_move_with_it(workload):
    (last_a, full_a), (last_b, full_b) = run(workload, 7), run(workload, 7)
    _, full_c = run(workload, 8)
    assert sorted(last_a) == ["attempted", "correct", "failed", "metrics"]
    assert list(last_a["metrics"]) == [name for name, _, _, _ in M.END_TO_END]
    assert last_a["correct"] and last_a["failed"] == 0 and last_a["attempted"] >= 1
    for name in EXACT:
        assert last_a["metrics"][name] == last_b["metrics"][name], name
    assert full_a["samples"]["exact"] == full_b["samples"]["exact"]
    assert (
        full_a["samples"]["exact"]["fault_placement"]
        != full_c["samples"]["exact"]["fault_placement"]
    )
    assert (last_a["attempted"], last_a["failed"]) == (
        last_b["attempted"], last_b["failed"]
    )


def test_simulated_dataplane_and_traced_run_report_every_metric():
    last, full = run("sim_chain", 7, trace=1)
    assert last["correct"], full["problems"]
    assert list(last["metrics"]) == [name for name, _, _ in M.per_layer()]
    assert last["metrics"]["trace.unattributed_share"]["value"] <= 0.10
    assert last["metrics"]["share.simnet"]["value"] > 0.5


def test_manifest_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == M.manifest()
    manifest = M.manifest()
    assert len(manifest["per_layer"]) <= 128
    assert {m["name"] for m in manifest["end_to_end"]} >= {"setup_s"}


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark it must fail, not report."""
    import shutil

    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--workload", "fleet_steady",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
