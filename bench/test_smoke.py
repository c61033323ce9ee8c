"""Smoke test of the benchmark itself: every workload at tiny size, untraced
and traced, emits every metric BENCHMARK.json names, each with a unit;
the traced sim-awgn run passes the exact reverse_step count check; and
without the package the benchmark fails without printing a result.

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int) -> tuple[str, dict]:
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return out.stdout, json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_a_unit(workload, trace):
    stdout, result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        for name in ("setup_s", "wall_s", "peak_rss_mb", "psnr_db", "error_rate"):
            assert f"\n{name} " in stdout
        assert ("train_steps_per_s" if workload == "train" else "trials_per_s") in stdout
    assert "results_sha256" in stdout
    if trace and workload == "sim-awgn":
        # 4 trials x (259 + 197 + 145 + 105 + 74) steps over the README grid
        assert result["metrics"]["diffusion.reverse_step.calls"]["value"] == 4 * 780
        assert "count check: reverse_step calls 3120, trials x sum(step_u) 3120" in stdout


def test_refuses_to_run_without_the_package():
    # a directory holding only BENCHMARK.json and the benchmark's files
    bare = ROOT / ".bench_run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bench = bare / "bench"
    bench.mkdir(parents=True)
    for path in BENCH_DIR.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (bare / "BENCHMARK.json").write_text(json.dumps(SPEC))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == "" or not out.stdout.strip().splitlines()[-1].startswith("{")
