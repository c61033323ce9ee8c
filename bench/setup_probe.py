"""Set-up time of a fresh process: import diffcomm, parse the config, and
build the schedule, denoiser and codec.

Run as ``python3 bench/setup_probe.py SRC_DIR CONFIG_JSON``; prints the
elapsed seconds, measured from before the first import.
"""

import time

_start = time.perf_counter()

import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])

import numpy as np  # noqa: E402

import diffcomm  # noqa: E402
from diffcomm.cli import parse_config  # noqa: E402

cfg = parse_config(sys.argv[2])
schedule = diffcomm.build_linear_schedule(
    cfg.schedule.T, cfg.schedule.beta_start, cfg.schedule.beta_end
)
denoiser = diffcomm.AnalyticGaussianDenoiser(
    diffcomm.GaussianSourceModel(mean=cfg.source.m, variance=cfg.source.v), schedule
)
codec = diffcomm.init_codec(
    cfg.source.shape,
    cfg.codec.k if cfg.codec.k is not None else 0.5,
    diffcomm.CodecArch(hidden=cfg.codec.hidden, blocks=cfg.codec.blocks),
    np.random.default_rng(cfg.seed),
)
print(time.perf_counter() - _start)
