"""Golden results.csv files: each config below must reproduce its pinned bytes.

Every run is repeated from its config and its ``results.csv`` is compared
byte for byte against ``tests/golden/<name>.csv``.  A mismatch reports the
first differing line.  Re-pin only for a deliberate behaviour change, and
name that change in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from diffcomm.cli import parse_config, run_simulate, run_sweep, run_train

GOLDEN = Path(__file__).resolve().parent / "golden"

SOURCE = {"shape": [2, 2, 4], "count": 3}
SNR_DB = [0.0, 6.0]
CODEC = {"enabled": True, "k": 0.5, "arch": {"hidden": 6, "blocks": 1}}
# at t_target 300 random fades and random H make some trials infeasible
MODES = {
    "adaptive": {"kind": "adaptive"},
    "fixed_step": {"kind": "fixed_step", "t_target": 800},
    "compare": {"kind": "compare", "t_target": 800},
}


def _simulate_configs() -> dict:
    configs = {}
    for ctype in ("awgn", "rayleigh", "mimo"):
        for mode in MODES:
            channel = {"type": ctype, "snr_db": SNR_DB}
            if ctype == "rayleigh" and mode != "adaptive":
                channel["h"] = [0.8, 0.3]
            base = {"source": SOURCE, "channel": channel, "mode": MODES[mode]}
            configs[f"simulate-{ctype}-{mode}"] = (run_simulate, base)
            if ctype != "mimo":  # the config rejects codec transmission over mimo
                configs[f"simulate-{ctype}-{mode}-codec"] = (run_simulate, {**base, "codec": CODEC})
    # four streams per trial, each mapped to its own step
    for mode in MODES:
        configs[f"simulate-mimo4-{mode}"] = (run_simulate, {
            "source": SOURCE,
            "channel": {"type": "mimo", "M": 4, "snr_db": SNR_DB},
            "mode": MODES[mode],
        })
    configs["simulate-rayleigh-mmse"] = (run_simulate, {
        "source": SOURCE,
        "channel": {"type": "rayleigh", "snr_db": SNR_DB, "convention": "mmse"},
    })
    # every trial maps at sigma2 * |h|^2, but the nominal cell variance saturates
    configs["simulate-rayleigh-saturating-cell"] = (run_simulate, {
        "source": SOURCE,
        "channel": {"type": "rayleigh", "snr_db": [-44.5, 0.0], "h": [0.5, 0.0]},
    })
    # a 2x2 latent has no SSIM window; 3x3 pins the SSIM column too
    configs["simulate-awgn-ssim"] = (run_simulate, {
        "source": {**SOURCE, "shape": [3, 3, 2]},
        "channel": {"type": "awgn", "snr_db": SNR_DB},
    })
    configs["simulate-file-source"] = (run_simulate, {
        "source": {**SOURCE, "kind": "file"},
        "channel": {"type": "awgn", "snr_db": SNR_DB},
    })
    return configs


def _sweep_config(param: str, values: list, ctype: str = "awgn") -> dict:
    codec = {"arch": CODEC["arch"]} if param == "C" else {"k": 0.5, "arch": CODEC["arch"]}
    return {
        "source": SOURCE,
        "channel": {"type": ctype, "snr_db": SNR_DB},
        "codec": codec,
        "train": {"batch": 2, "holdout": 2},
        "sweep": {"param": param, "values": values, "steps": 3, "trials": 3},
    }


def _train_config(train: dict, codec: dict) -> dict:
    return {
        "source": {"shape": SOURCE["shape"]},
        "channel": {"type": "awgn", "snr_db": [5.0]},
        "codec": {"k": 0.5, **codec},
        "train": {"batch": 2, "holdout": 4, "snr_db": 5.0, **train},
    }


CONFIGS = {
    **_simulate_configs(),
    "train-default": (run_train, _train_config({"steps": 12, "eval_every": 4}, {})),
    # eval_every does not divide steps, so the last step is evaluated on its own
    "train-momentum": (run_train, _train_config(
        {"steps": 12, "eval_every": 5, "momentum": 0.9, "common_noise": True},
        {"arch": {"hidden": 6, "blocks": 3}, "snr_to_mu": True, "power_norm": False},
    )),
    "sweep-lambda": (run_sweep, _sweep_config("lambda", [0.1, 1.0])),
    "sweep-gamma": (run_sweep, _sweep_config("gamma", [0.0, 0.5])),
    # n = 16 caps the channel count at 769
    "sweep-C": (run_sweep, _sweep_config("C", [100, 400])),
    "sweep-rayleigh": (run_sweep, _sweep_config("lambda", [0.1, 1.0], ctype="rayleigh")),
}


def _write_latents(work: Path) -> str:
    path = work / "latents.npz"
    latents = np.random.default_rng(20240725).standard_normal((3, *SOURCE["shape"]))
    np.savez(path, latents=latents)
    return str(path)


def _run(name: str, work: Path, threads: int = 1) -> bytes:
    runner, cfg = CONFIGS[name]
    if cfg["source"].get("kind") == "file":
        cfg = {**cfg, "source": {**cfg["source"], "path": _write_latents(work)}}
    out_dir = work / "out"
    if runner is run_train:  # training is serial and takes no thread count
        runner(parse_config(json.dumps(cfg)), out_dir=str(out_dir))
    else:
        runner(parse_config(json.dumps(cfg)), out_dir=str(out_dir), threads=threads)
    return (out_dir / "results.csv").read_bytes()


def _first_difference(golden: bytes, actual: bytes) -> str:
    want, got = golden.decode("ascii").splitlines(), actual.decode("ascii").splitlines()
    for number, (a, b) in enumerate(zip(want, got), start=1):
        if a != b:
            return f"first difference at line {number}:\n  golden: {a}\n  actual: {b}"
    return f"golden has {len(want)} lines, actual has {len(got)}"


def _check(name: str, actual: bytes):
    golden = (GOLDEN / f"{name}.csv").read_bytes()
    if actual != golden:
        pytest.fail(f"{name}.csv differs from its golden file; {_first_difference(golden, actual)}")


def test_golden_files_match_the_config_list():
    assert sorted(p.stem for p in GOLDEN.glob("*.csv")) == sorted(CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_results_csv_matches_golden(name, tmp_path):
    _check(name, _run(name, tmp_path))


@pytest.mark.parametrize("name", ["simulate-mimo-adaptive", "sweep-lambda"])
def test_results_csv_matches_golden_at_two_threads(name, tmp_path):
    _check(name, _run(name, tmp_path, threads=2))


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CONFIGS):
            work = Path(tmp) / name
            work.mkdir()
            (GOLDEN / f"{name}.csv").write_bytes(_run(name, work))
            print(f"wrote {GOLDEN.name}/{name}.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
