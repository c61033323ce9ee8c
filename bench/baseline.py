"""Record the environment and the baseline figures in bench/baseline.json.

    python3 bench/baseline.py [--seed 0]

Runs every workload of BENCHMARK.json once untraced and once traced,
then re-measures the reference figures the ROADMAP quotes for the
initial code: the README simulate config, one reverse step of a
1000-step chain at n=256, one SGD step at the default settings with
k=0.25, and the README config at 4 threads against 1.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from run import BENCH_DIR, ROOT, SRC, environment  # noqa: E402

REPEATS = 5
# How each ROADMAP figure was taken there and here, to read a disagreement.
NOTES = {
    "readme_threads_1": "README simulate config (5 cells x 100 trials, 8x8x4), run_simulate "
    "in-process, median of 3; the ROADMAP figure is one run on another 2-core machine, and "
    "the recorded host's speed swings by a third over tens of seconds, so a gap of a quarter "
    "is noise",
    "threads_4_over_1": "README config wall time at threads=4 over threads=1, median of 3 "
    "each; the ROADMAP's 3.24 s / 2.63 s (config not named) says more threads are slower "
    "because the chain loop holds the GIL; here too, by less",
    "chain_step": "one denoise_from_step from u=1000 at n=256 with the analytic denoiser, "
    "median of 5, divided by 1000",
    "sgd_step": "train_codec with TrainConfig defaults (batch 4) for 200 steps at 5 dB, k=0.25, "
    "median of 3, divided by 200, including two 64-sample holdout evaluations, BLAS pinned to "
    "one thread; with OpenBLAS's default two-thread pool the same loop took 2.3 to 5.1 ms per "
    "step on the recorded host (cProfile adds only about 12%), so the ROADMAP's 4.9 ms most likely "
    "ran with the pool unpinned",
}


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    for line in lines:
        if line.startswith("results_sha256"):
            result["results_sha256"] = line.split()[1]
    return result


def median_time(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def roadmap_figures(seed: int) -> list[dict]:
    sys.path.insert(0, str(SRC))
    import diffcomm as dc
    from diffcomm.cli import parse_config, run_simulate

    out_dir = str(ROOT / ".bench_run" / "baseline")
    readme = parse_config(json.dumps({
        "seed": seed, "source": {"shape": [8, 8, 4], "count": 100},
        "channel": {"type": "awgn", "snr_db": [0, 3, 6, 9, 12]},
    }))
    t1 = median_time(lambda: run_simulate(readme, out_dir=out_dir, threads=1), 3)
    t4 = median_time(lambda: run_simulate(readme, out_dir=out_dir, threads=4), 3)

    sch = dc.build_linear_schedule(1000, 1e-4, 0.02)
    den = dc.AnalyticGaussianDenoiser(dc.GaussianSourceModel(0.0, 1.0), sch)
    rng = np.random.default_rng(seed)
    y = dc.Latent(data=rng.standard_normal(256), shape=(256, 1, 1))
    chain = median_time(lambda: dc.denoise_from_step(y, 1000, den, sch, rng))

    steps = 200
    params = dc.init_codec((8, 8, 4), 0.25, dc.CodecArch(), np.random.default_rng(seed))
    tcfg = dc.TrainConfig(steps=steps)
    source = dc.GaussianSourceModel(0.0, 1.0)
    sgd = median_time(lambda: dc.train_codec(
        source, 10 ** (-5 / 20), params, dc.LossWeights(), tcfg, np.random.default_rng(seed)), 3)

    figures = [
        ("readme_threads_1", 3.95, t1, "s"),
        ("threads_4_over_1", 3.24 / 2.63, t4 / t1, "ratio"),
        ("chain_step", 30.8, chain / 1000 * 1e6, "us"),
        ("sgd_step", 4.9, sgd / steps * 1e3, "ms"),
    ]
    return [
        {"figure": name, "roadmap": roadmap, "measured": measured, "unit": unit,
         "how": NOTES[name]}
        for name, roadmap, measured, unit in figures
    ]


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {
        "commit": git_commit(),
        "environment": environment(),
        "seed": args.seed,
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    for w in spec["workloads"]:
        record["workloads"][w["name"]] = {
            "why": w["why"],
            "end_to_end": bench_run(w["name"], args.seed, spec["run_seconds"], 0),
            "per_layer": bench_run(w["name"], args.seed, spec["run_seconds"], 1),
        }
        print(f"{w['name']} done", file=sys.stderr)
    record["roadmap_figures"] = roadmap_figures(args.seed)
    (BENCH_DIR / "baseline.json").write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
