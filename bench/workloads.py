"""Workload definitions and the checks on their outputs.

Each workload is a JSON experiment config fed to the package's public
entry points (``parse_config`` then ``run_simulate`` or ``run_train``),
built from the benchmark seed, plus the checks that decide whether a
run's ``results.csv`` is correct.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

SNR_DB = (0, 3, 6, 9, 12)
SHAPE = (8, 8, 4)
# Share of the posterior-sampling MSE a cell may miss it by: the adaptive
# receiver starts from the nearest step, not the exact noise level.
MSE_TOLERANCE = 0.15
# Standard errors of the per-trial channel draw allowed on top, for MIMO.
MIMO_SIGMAS = 4.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "simulate" or "train"
    trials: int  # per cell, simulate only
    steps: int  # SGD steps, train only
    streams: int  # chains per trial; more than one means a MIMO channel

    def config(self, seed: int) -> dict:
        if self.kind == "train":
            return {
                "seed": seed,
                "source": {"shape": list(SHAPE)},
                "channel": {"type": "awgn", "snr_db": [5]},
                "codec": {"k": 0.5},
                "train": {"steps": self.steps, "snr_db": 5},
            }
        channel = {"type": "awgn", "snr_db": list(SNR_DB)}
        if self.streams > 1:
            channel = {"type": "mimo", "M": self.streams, "snr_db": list(SNR_DB)}
        return {
            "seed": seed,
            "source": {"shape": list(SHAPE), "count": self.trials},
            "channel": channel,
        }

    @property
    def items_per_call(self) -> int:
        """Trials (simulate) or SGD steps (train) in one driver call."""
        return self.steps if self.kind == "train" else self.trials * len(SNR_DB)

    @property
    def latent_n(self) -> int:
        return SHAPE[0] * SHAPE[1] * SHAPE[2]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sim-awgn",
            "README simulate grid at 20 trials per cell, awgn, 1 thread: one step u per cell, "
            "the chain is nearly all the work; the plain single-threaded baseline",
            "simulate", trials=20, steps=0, streams=1,
        ),
        Workload(
            "sim-mimo",
            "same grid on 2x2 MIMO, random H per trial, 100 trials: an SVD and two chains from "
            "ragged steps per trial; the traced run times it at 1 and 2 threads",
            "simulate", trials=100, steps=0, streams=2,
        ),
        Workload(
            "train",
            "400 SGD steps of codec training at 5 dB, k=0.5, default arch: no reverse chain, "
            "codec and loss do all the work, so chain changes must not move it",
            "train", trials=0, steps=400, streams=0,
        ),
    )
}

# Run sizes for the smoke test: same code paths, a fraction of a second each.
TINY = {"sim-awgn": {"trials": 4}, "sim-mimo": {"trials": 4}, "train": {"steps": 20}}


def read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="ascii") as handle:
        return list(csv.DictReader(handle))


def psnr_db(workload: Workload, rows: list[dict]) -> float:
    """Mean of the cells' psnr_db (simulate) or the final holdout eval_psnr (train)."""
    if workload.kind == "train":
        evals = [float(r["eval_psnr"]) for r in rows if r["eval_psnr"] != ""]
        return evals[-1]
    return float(np.mean([float(r["psnr_db"]) for r in rows]))


def recon_mse(workload: Workload, rows: list[dict]) -> float:
    """Mean of the cells' mse (simulate) or the final holdout MSE (train)."""
    if workload.kind == "train":
        return 10.0 ** (-psnr_db(workload, rows) / 10.0)
    return float(np.mean([float(r["mse"]) for r in rows]))


@functools.lru_cache(maxsize=None)
def _mimo_expected_mse(sigma2: float, M: int, draws: int = 100_000) -> tuple[float, float]:
    """Mean and spread over fresh MxM Rayleigh draws of the per-trial
    posterior-sampling MSE, mean over streams of 2 sigma^2 / (s_i^2 + sigma^2)."""
    rng = np.random.default_rng(0)
    shape = (draws, M, M)
    H = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
    s2 = np.linalg.svd(H, compute_uv=False) ** 2
    per_trial = np.mean(2.0 * sigma2 / (s2 + sigma2), axis=1)
    return float(per_trial.mean()), float(per_trial.std())


def check(workload: Workload, rows: list[dict]) -> list[str]:
    """Problems with one run's results.csv; empty when it is correct."""
    if workload.kind == "train":
        return _check_train(workload, rows)
    problems = []
    if len(rows) != len(SNR_DB):
        return [f"expected {len(SNR_DB)} cells, got {len(rows)}"]
    for row in rows:
        sigma2, mse = float(row["sigma2"]), float(row["mse"])
        if int(row["trials"]) != workload.trials:
            problems.append(
                f"snr_db={row['snr_db']}: {row['trials']} trials, expected {workload.trials}")
        if workload.streams > 1:
            expected, spread = _mimo_expected_mse(sigma2, workload.streams)
            tol = MSE_TOLERANCE * expected + MIMO_SIGMAS * spread / math.sqrt(workload.trials)
        else:
            # unit-variance source: 2 v sigma^2 / (v + sigma^2) with v = 1
            expected = 2.0 * sigma2 / (1.0 + sigma2)
            tol = MSE_TOLERANCE * expected
        if not abs(mse - expected) <= tol:
            problems.append(
                f"snr_db={row['snr_db']}: mse {mse:.6g} not within {tol:.3g} of {expected:.6g}"
            )
    return problems


def _check_train(workload: Workload, rows: list[dict]) -> list[str]:
    problems = []
    if len(rows) != workload.steps:
        problems.append(f"expected {workload.steps} loss rows, got {len(rows)}")
    bad = [r["step"] for r in rows if not math.isfinite(float(r["total"]))]
    if bad:
        problems.append(f"loss not finite at steps {bad[:5]}")
    evals = [float(r["eval_psnr"]) for r in rows if r["eval_psnr"] != ""]
    if not evals:
        problems.append("no holdout evaluation")
    elif not evals[-1] >= evals[0]:
        problems.append(f"final holdout psnr {evals[-1]:.6g} below the first {evals[0]:.6g}")
    return problems
