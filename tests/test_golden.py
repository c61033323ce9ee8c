"""Golden results.csv files: each config below must reproduce its pinned bytes.

Every run is repeated from its config and its ``results.csv`` is compared
byte for byte against ``tests/golden/<name>.csv``.  A mismatch reports the
first differing line.  Re-pin only for a deliberate behaviour change, and
name that change in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py --write

The ``resolved_config.json`` each run writes is pinned by its sha256 in
``RESOLVED_SHA256`` (bytes, so an int written as a float shows), for
every config but those with a file source (``WITH_PATH``), whose configs
hold a temporary path.

The CSVs print 6 significant digits, so they cannot see a change in the
last bits of a result.  ``RECON_SHA256`` pins the bits of every config:
for a simulate or sweep config, a sha256 over the float64 bytes of each
reconstruction that ``pipeline._receive`` returns, route by route in call
order (so at one thread); for a train config, over the float64 bytes of
``params_to_vector`` of the params ``run_train`` returns (the bytes of
``codec.npz`` depend on numpy's zip writer).  Like the CSVs, the digests
are re-pinned only for a named behaviour change; ``--write`` prints both
digest tables, taken from the runs that write the CSVs, to paste.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from diffcomm.cli import parse_config, run_simulate, run_sweep, run_train
from diffcomm import pipeline
from diffcomm.codec import params_to_vector

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
            # k 0.5625 of n 16 is m 9: the odd transmit vector is padded by one element
            if (ctype, mode) in (("awgn", "adaptive"), ("rayleigh", "compare")):
                configs[f"simulate-{ctype}-{mode}-codec-odd"] = (
                    run_simulate, {**base, "codec": {**CODEC, "k": 0.5625}}
                )
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
    # a pinned |h| = 0.005 carries 4e4 at 0 dB, past the schedule's last
    # variance, so every trial clips to step T there; 6 dB's 1e4 maps
    configs["simulate-rayleigh-clipped"] = (run_simulate, {
        "source": SOURCE,
        "channel": {"type": "rayleigh", "snr_db": SNR_DB, "h": [0.005, 0.0], "convention": "mmse"},
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


# A file source trains on its first source.count rows, cycled: count 4 of
# the file's 3 rows is rows 0, 1, 2, 0.  Batches of 3 and a holdout of 5
# wrap around those 4 rows, and the sweep's 5 evaluation trials around the
# file's 3.
FILE_SOURCE = {"shape": SOURCE["shape"], "kind": "file", "count": 4}
FILE_TRAIN = {"batch": 3, "holdout": 5}


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
    "train-file-source": (run_train, {
        **_train_config({**FILE_TRAIN, "steps": 7, "eval_every": 3}, {}),
        "source": FILE_SOURCE,
    }),
    "sweep-file-source": (run_sweep, {
        **_sweep_config("lambda", [0.1, 1.0]),
        "source": FILE_SOURCE,
        "train": FILE_TRAIN,
        "sweep": {"param": "lambda", "values": [0.1, 1.0], "steps": 3, "trials": 5},
    }),
}

WITH_PATH = {name for name, (_, cfg) in CONFIGS.items() if cfg["source"].get("kind") == "file"}

RESOLVED_SHA256 = {
    "simulate-awgn-adaptive": "3604420cdd69df5303ba8036b22962de1eebc6e144ff1c5948aaf1027bf1e7a3",
    "simulate-awgn-adaptive-codec": "0f125d701d302e9af08164acc1169ad2d8c3de49e8d969dad27290a879f7896e",
    "simulate-awgn-adaptive-codec-odd": "7ee58be00fd368da762115eba0c20a1b4547205559593ae028170b0873238dd2",
    "simulate-awgn-compare": "9958745a9a0347b518e894f03b4a00cda18c4de686e97b7d7001ccb9cedac860",
    "simulate-awgn-compare-codec": "10c4b8b9a7e5a3a482ee5ccc72b4ee61619cc63839db1e46ea2055ce3e595ee1",
    "simulate-awgn-fixed_step": "f6da46e8b8f0ad4b53117c59be5046877000e7288a8a32fc4b5d1c9b7d6fcc31",
    "simulate-awgn-fixed_step-codec": "b5fa09c7e070984fe8c1552b089a078d31cdfe8065f2150eb73d211c24f03a04",
    "simulate-awgn-ssim": "f0aac961f68780b773a042aaf224f1acc8bb7d2165522052d50781b907ee2b90",
    "simulate-mimo-adaptive": "c5cef3dbda314db8c50bf55bb4c216f6723adba05cb7372c454ee4e778233d4d",
    "simulate-mimo-compare": "87dc64769558790e0621473535a2d9cc436714010389f89dc0c5c31732ee8c4f",
    "simulate-mimo-fixed_step": "78198d354b209ff87a56c34557c6c2ab8f016e70a091006dcc2419a0907175ab",
    "simulate-mimo4-adaptive": "87ecaf289950a4f4e37e5e5af07573571f940a7d4d7e5c845e3c3a13a627290b",
    "simulate-mimo4-compare": "c4dcd4b952fea7cd20159d2db9c51052a6a96fd80b8810829aac208a2696f7dd",
    "simulate-mimo4-fixed_step": "13085d11a318c0d988fe5ca8383bba06a4eee2bada89f210c21dbd11733f90ac",
    "simulate-rayleigh-adaptive": "40e7d10315c6de80128660d89e1d19b37d991870afef402087e6555646e8b395",
    "simulate-rayleigh-adaptive-codec": "83004529e7e15962a3c80f987db6fe74e7824ca5aa9529d7776d1ac2d0b9ff99",
    "simulate-rayleigh-clipped": "b10d5d23bdbc51408ac956f5893431e3956c6fcd2dfc3d799dee4a825d41310a",
    "simulate-rayleigh-compare": "4b0dffcd359bbb0bef4640cf8959408bba71e3843aaf05eb4f9260eb71bd4dd0",
    "simulate-rayleigh-compare-codec": "33c6d776bec89c07c3867bbb152dc0ca77c500b7cdd0ff03fbac81d7c5f18a2a",
    "simulate-rayleigh-compare-codec-odd": "a35734dd9a8f54756bc10e87a246b371400562cc4b51ca7985326432b2014e28",
    "simulate-rayleigh-fixed_step": "c413f8a3bd22949f88ff05f956e62c9a2851a139c074158e85d840894f220c71",
    "simulate-rayleigh-fixed_step-codec": "4c1814b63220c0953df2162f651995b45bb241a8d14c6bcdf4cd9ed6d200fd7b",
    "simulate-rayleigh-mmse": "3677552b731b4db2ca8d37926c4c9c3c9db9f732446509f034832c2546b1f577",
    "simulate-rayleigh-saturating-cell": "c3b8bbae95493eceb54bc0af71f973e42fb72005db9794179326598acdda7a9b",
    "sweep-C": "36b99a1e551cc79883580727eddaac24de13f771d2f0cd12a4e34e53bc25bede",
    "sweep-gamma": "bc340847bd471362e78f0613c5af62b23cc73891bcfcac19422d8cb85e9116d9",
    "sweep-lambda": "c1b3df3032edefa25b8dc90ff6ac8528faabcc1f8f73ea4cf78a764f456d5aa5",
    "sweep-rayleigh": "cb44f21cee6f84f361d5f6693420bfa8903fca265484694f6ff96cacaa2c7551",
    "train-default": "479bbae0f75af102696fd945db3754742872eca61f155c085754df4585708a7f",
    "train-momentum": "e7a7af1ca1d17673f04e6e29ddfe49fde97fad4459880d096aece00425bb84b6",
}

RECON_SHA256 = {
    "simulate-awgn-adaptive": "616957632a5f863fa9f151b36e97ff7ffdaaa54d13c5c24c29e304dbb622eafe",
    "simulate-awgn-adaptive-codec": "4067cccd8cee4e4a90f02714e34498df611a717180d601c4c60f086d1af59612",
    "simulate-awgn-adaptive-codec-odd": "b4838c53fe282731e00bc85a8a758df9fdc1c869c3865b9fb32b573e73c193e1",
    "simulate-awgn-compare": "1e382d43f06ff255ca63b99fa68a6cc132ce7860edbad9c5cd9746e8c7953051",
    "simulate-awgn-compare-codec": "88dbed9d2c24784d17353bd13c788448fb9fab3584be5d8344d9c3f9c1d68a05",
    "simulate-awgn-fixed_step": "d0ea24fa1c2de93cde9e37eedc037aed86b4ddc194ef3d94bd8dc94d4abdec05",
    "simulate-awgn-fixed_step-codec": "139598a4a839dc2efd328ee0f18fb1e7e696548bc58ab9e6e72561759654be6e",
    "simulate-awgn-ssim": "abc6f59f89905a6462ddd409fe0f0d8cd4f94c32ea4590d49a2b68b6af46fd17",
    "simulate-file-source": "5f4874bba79e08fbbdfeb57bcbd8920c65d07720eb1ed8fd3be2d1906a3f00ae",
    "simulate-mimo-adaptive": "f393486b17cc06c9e29f1ced97d37488ffc9c2c5df07c60051b05aac2cf5cfcd",
    "simulate-mimo-compare": "7a73f2908cbb379cf19fe8746e2c75e807147871f16431150b7330fdd50a2ecc",
    "simulate-mimo-fixed_step": "be9ab92b4a060a625a68db6f3eae2466d8fa078b6cf22beb3835bcb62556a861",
    "simulate-mimo4-adaptive": "c538da04b4ba3625359dd02f2c4b8bf639d023f7326926c6b3d1df00610394b1",
    "simulate-mimo4-compare": "c5a391909d316231ffd9f10781bb0cd9956f56e39c626497b36fad81937672a6",
    "simulate-mimo4-fixed_step": "804bec3f8eef47513ebb14777c0b387a1190c121c4ba013305b61039b8d360c1",
    "simulate-rayleigh-adaptive": "7a21a12b5cc77fe0ced6168e5309afd6e1dd136236715683e6c88ea80a7c6437",
    "simulate-rayleigh-adaptive-codec": "ca0b68ff622349dcebca28fdb23526c1199cebe895e8024dc5cc5b50fd61f889",
    "simulate-rayleigh-clipped": "0df9784afe07306832aea27ce724b17006f4406e4e6d96e263c623d2f2e9b0ad",
    "simulate-rayleigh-compare": "538d044b54064a541a27017da173f2514236b58896a44f985686300c8a7f69a9",
    "simulate-rayleigh-compare-codec": "e64054b40b8fb60d1fca327b5f0671230a16fcd78da36a353c5623870b498b14",
    "simulate-rayleigh-compare-codec-odd": "e6b7f7c94a11116b79ec80a571c406a06dbb4e54d737c914ce58a19d2687ad5d",
    "simulate-rayleigh-fixed_step": "e3c35cf52ec4f85b6a03fb7c58a26da34513c6cbdb89a22dbe526611a38b2334",
    "simulate-rayleigh-fixed_step-codec": "429fc453495e0f6eb3cfacc0e09c66c09a2bd61ad718b5681069b6d2cf4e1c36",
    "simulate-rayleigh-mmse": "a36bb8cb2680cdf07edcae3275dc45878c1bae11b9d063625e6a604860cf9bee",
    "simulate-rayleigh-saturating-cell": "8ecd70f87942e055fe58d4b169b4b62515977971e3c71680983ff71e21ba0eed",
    "sweep-C": "2e7ea2081bdbbe2e6dfe0a3607d4ae0cc86f4c93bf784ff4a4f015aeeff17465",
    "sweep-file-source": "233b2c6b3c1ea3f53e66ce354bdc07e470fde5662264e1756b1155ae08a33d91",
    "sweep-gamma": "687541bf26d55e433e400979075783382e07a98f55d3ae56183c5d19f28f6871",
    "sweep-lambda": "7998572e53afb682dd6cc8dd80f5ae79d2b887be06e95c6743f692fe559be129",
    "sweep-rayleigh": "739714436a2fd64eb0a3fb407fd54656dc1c61bf44a2b123003c36a00b6c5c56",
    "train-default": "fa72ed25f4bd1708f631b1761fa163581dc5c915cc9bbc9460e8d04170df64a2",
    "train-file-source": "bcec385a47910c1f88de0d738fe3ea08d035b1b748cf49e9262dec3adf7a7304",
    "train-momentum": "006a7d8da3325d3e1040b55677162f785c6de74e809b2317d8de4e3f9e9ff4d7",
}


def _write_latents(work: Path) -> str:
    path = work / "latents.npz"
    latents = np.random.default_rng(20240725).standard_normal((3, *SOURCE["shape"]))
    np.savez(path, latents=latents)
    return str(path)


def _run(name: str, work: Path, threads: int = 1) -> tuple[bytes, str]:
    """Run config ``name`` under ``work/out``; returns its results.csv bytes
    and the digest ``RECON_SHA256`` pins (taken in call order, so it is
    that digest only at one thread)."""
    runner, cfg = CONFIGS[name]
    if cfg["source"].get("kind") == "file":
        cfg = {**cfg, "source": {**cfg["source"], "path": _write_latents(work)}}
    out_dir = work / "out"
    digest = hashlib.sha256()
    receive = pipeline._receive

    def recording(*args):
        recons, steps = receive(*args)
        for recon in recons:
            digest.update(recon.tobytes())
        return recons, steps

    pipeline._receive = recording
    try:
        if runner is run_train:  # training is serial and takes no thread count
            params, _ = runner(parse_config(json.dumps(cfg)), out_dir=str(out_dir))
            digest.update(params_to_vector(params).tobytes())
        else:
            runner(parse_config(json.dumps(cfg)), out_dir=str(out_dir), threads=threads)
    finally:
        pipeline._receive = receive
    return (out_dir / "results.csv").read_bytes(), digest.hexdigest()


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
    _check(name, _run(name, tmp_path)[0])


def test_resolved_config_table_covers_every_config_without_a_path():
    assert sorted(RESOLVED_SHA256) == sorted(set(CONFIGS) - WITH_PATH)


@pytest.mark.parametrize("name", sorted(RESOLVED_SHA256))
def test_resolved_config_matches_pinned_digest(name, tmp_path):
    _run(name, tmp_path)
    text = (tmp_path / "out" / "resolved_config.json").read_bytes()
    assert hashlib.sha256(text).hexdigest() == RESOLVED_SHA256[name]


def test_recon_table_covers_every_config():
    assert sorted(RECON_SHA256) == sorted(CONFIGS)


@pytest.mark.parametrize("name", sorted(RECON_SHA256))
def test_reconstructions_match_pinned_digest(name, tmp_path):
    assert _run(name, tmp_path)[1] == RECON_SHA256[name]


@pytest.mark.parametrize("name", ["simulate-mimo-adaptive", "sweep-lambda"])
def test_results_csv_matches_golden_at_two_threads(name, tmp_path):
    _check(name, _run(name, tmp_path, threads=2)[0])


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    GOLDEN.mkdir(exist_ok=True)
    resolved, recon = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CONFIGS):
            work = Path(tmp) / name
            work.mkdir()
            results, recon[name] = _run(name, work)
            (GOLDEN / f"{name}.csv").write_bytes(results)
            print(f"wrote {GOLDEN.name}/{name}.csv")
            if name not in WITH_PATH:
                text = (work / "out" / "resolved_config.json").read_bytes()
                resolved[name] = hashlib.sha256(text).hexdigest()
    for table, digests in (("RESOLVED_SHA256", resolved), ("RECON_SHA256", recon)):
        print(f"{table} = {{")
        for name, digest in digests.items():
            print(f'    "{name}": "{digest}",')
        print("}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
