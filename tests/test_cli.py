"""Config schema, experiment runners, CSV emission, CLI entry point."""

import csv
import json
import math
import os
import re
import shutil
import subprocess
import tracemalloc
import venv
from pathlib import Path

import numpy as np
import pytest

from diffcomm import (
    ChannelOutput,
    ConfigurationError,
    build_linear_schedule,
    compensate_to_step,
    denoise_from_step,
    diffusion,
    load_codec,
    sigma2_to_step,
    step_to_sigma2,
)
from diffcomm.cli import (
    RunResult,
    emit_csv,
    main,
    parse_config,
    render_report,
    resolved_config,
    run_simulate,
    run_sweep,
    run_train,
)
from diffcomm.cli import run as run_module

REPO = Path(__file__).resolve().parents[1]
SMALL_SOURCE = {"shape": [2, 2, 2], "count": 2}


def _cfg(**overrides):
    base = {"channel": {"snr_db": [3.0]}, "source": dict(SMALL_SOURCE)}
    base.update(overrides)
    return json.dumps(base)


def _write_cfg(tmp_path, text, name="cfg.json"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# parsing


def test_minimal_config_fills_defaults():
    cfg = parse_config('{"channel": {"snr_db": [5]}}')
    assert cfg.seed == 0
    assert (cfg.schedule.T, cfg.schedule.beta_start, cfg.schedule.beta_end) == (1000, 1e-4, 0.02)
    assert cfg.source.kind == "gaussian"
    assert cfg.source.shape == (8, 8, 4)
    assert (cfg.source.m, cfg.source.v) == (0.0, 1.0)
    assert cfg.channel.type == "awgn"
    assert len(cfg.channel.cells) == 1
    assert cfg.channel.cells[0].sigma2 == pytest.approx(10.0 ** -0.5, rel=1e-15)
    assert not cfg.codec.enabled
    assert (cfg.loss.lam, cfg.loss.gamma) == (0.1, 0.1)
    assert (cfg.train.batch, cfg.train.lr, cfg.train.steps) == (4, 1e-4, 2000)
    assert (cfg.mode.kind, cfg.mode.t_target) == ("adaptive", 200)
    assert cfg.output.csv == "results.csv"
    assert cfg.sweep is None


def test_unknown_keys_name_their_path():
    with pytest.raises(ConfigurationError, match="channel.bogus"):
        parse_config('{"channel": {"snr_db": [5], "bogus": 1}}')
    with pytest.raises(ConfigurationError, match="frobnicate"):
        parse_config('{"channel": {"snr_db": [5]}, "frobnicate": {}}')
    with pytest.raises(ConfigurationError, match="codec.arch.wat"):
        parse_config('{"channel": {"snr_db": [5]}, "codec": {"arch": {"wat": 3}}}')


def test_type_mismatches_name_their_path():
    with pytest.raises(ConfigurationError, match="channel.type"):
        parse_config('{"channel": {"snr_db": [5], "type": 3}}')
    with pytest.raises(ConfigurationError, match="seed"):
        parse_config('{"seed": "x", "channel": {"snr_db": [5]}}')
    with pytest.raises(ConfigurationError, match="train.batch"):
        parse_config('{"channel": {"snr_db": [5]}, "train": {"batch": 0}}')


@pytest.mark.parametrize("overrides, field", [
    ({"channel": {"snr_db": [-3100]}}, "channel.snr_db[0]"),
    ({"channel": {"sigma": [1e200]}}, "channel.sigma[0]"),
    ({"train": {"snr_db": -3100}}, "train.snr_db"),
    ({"train": {"snr_db": 3300}}, "train.snr_db"),
])
def test_main_rejects_a_noise_variance_out_of_range(tmp_path, capsys, overrides, field):
    out = tmp_path / "out"
    assert main(["simulate", "--config", _write_cfg(tmp_path, _cfg(**overrides)), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"configuration error: {field}: noise variance")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "simulate"])
def test_main_rejects_a_schedule_that_cannot_be_built_before_any_output(tmp_path, capsys, command):
    # 200,000 steps up to beta 0.5 underflow the alpha-bars; the schedule is
    # built at parse time, so neither training nor a rayleigh grid starts
    text = json.dumps({
        "schedule": {"T": 200000, "beta_end": 0.5},
        "channel": {"type": "rayleigh", "snr_db": [5]},
        "codec": {"k": 0.5},
        "train": {"steps": 5},
    })
    out = tmp_path / "out"
    assert main([command, "--config", _write_cfg(tmp_path, text), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("configuration error: schedule.")
    assert not out.exists()


def test_extreme_noise_levels_that_stay_finite_parse():
    # a fade leaves saturation to the run; an adaptive awgn cell would fail it here
    text = '{"channel": {"type": "rayleigh", "snr_db": [-3000]}}'
    assert parse_config(text).channel.cells[0].sigma2 == 1e300
    # sigma^2 underflows to 0: a noiseless cell, like sigma = 0
    for sigma in (0.0, 1e-200):
        cell = parse_config(f'{{"channel": {{"sigma": [{sigma}]}}}}').channel.cells[0]
        assert cell.sigma2 == 0.0 and cell.snr_db == math.inf


def test_train_variance_boundary_is_the_runners_variance():
    """The parser holds train.snr_db to the variance the runners train at."""
    tiny = 3236.0  # 10^(-323.6) is the smallest subnormal, 5e-324
    cfg = parse_config(json.dumps({"channel": {"snr_db": [5]}, "train": {"snr_db": tiny}}))
    assert cfg.train.sigma2 == 10.0 ** (-tiny / 10.0) == 5e-324
    assert math.sqrt(cfg.train.sigma2) > 0.0
    with pytest.raises(ConfigurationError, match="train.snr_db"):
        parse_config(json.dumps({"channel": {"snr_db": [5]}, "train": {"snr_db": tiny + 0.1}}))


def test_invalid_json_is_a_config_error():
    with pytest.raises(ConfigurationError, match="invalid JSON"):
        parse_config("{nope")
    with pytest.raises(ConfigurationError, match="top level"):
        parse_config("[1, 2]")


def test_channel_section_required():
    with pytest.raises(ConfigurationError, match="channel"):
        parse_config("{}")


def test_exactly_one_noise_axis():
    with pytest.raises(ConfigurationError, match=r"channel.snr_db, channel.sigma"):
        parse_config('{"channel": {"snr_db": [5], "sigma": [1.0]}}')
    with pytest.raises(ConfigurationError, match=r"channel.snr_db, channel.sigma"):
        parse_config('{"channel": {"type": "awgn"}}')
    with pytest.raises(ConfigurationError, match="nonempty"):
        parse_config('{"channel": {"snr_db": []}}')


def test_sigma_cells_carry_equivalent_snr():
    cfg = parse_config('{"channel": {"sigma": [0.5]}}')
    cell = cfg.channel.cells[0]
    assert cell.sigma2 == 0.25
    assert cell.snr_db == pytest.approx(-10.0 * math.log10(0.25), rel=1e-15)
    with pytest.raises(ConfigurationError, match=r"channel.sigma\[0\]"):
        parse_config('{"channel": {"sigma": [-1.0]}}')


def test_both_compression_settings_rejected():
    with pytest.raises(ConfigurationError, match=r"codec.C, codec.k"):
        parse_config(_cfg(codec={"enabled": True, "C": 64, "k": 0.5}))
    with pytest.raises(ConfigurationError, match=r"codec.C, codec.k"):
        parse_config(_cfg(codec={"enabled": True}))
    with pytest.raises(ConfigurationError, match="codec.k"):
        parse_config(_cfg(codec={"enabled": True, "k": 1.5}))


def test_referenced_files_must_exist(tmp_path):
    with pytest.raises(ConfigurationError, match="source.path"):
        parse_config(_cfg(source={"kind": "file", "path": "/nonexistent.npz"}))
    with pytest.raises(ConfigurationError, match="codec.params_path"):
        parse_config(_cfg(codec={"enabled": True, "k": 0.5, "params_path": "/nonexistent.npz"}))


def test_channel_scoped_keys():
    with pytest.raises(ConfigurationError, match="channel.h"):
        parse_config('{"channel": {"snr_db": [5], "h": [1.0, 0.0]}}')
    with pytest.raises(ConfigurationError, match="channel.h"):
        parse_config('{"channel": {"type": "rayleigh", "snr_db": [5], "h": [0.0, 0.0]}}')
    with pytest.raises(ConfigurationError, match="channel.M"):
        parse_config('{"channel": {"snr_db": [5], "M": 2}}')
    with pytest.raises(ConfigurationError, match="channel.convention"):
        parse_config('{"channel": {"snr_db": [5], "convention": "mmse"}}')


def test_cross_validation():
    with pytest.raises(ConfigurationError, match="codec.enabled, channel.type"):
        parse_config(_cfg(channel={"type": "mimo", "snr_db": [5]},
                          codec={"enabled": True, "k": 0.5}))
    with pytest.raises(ConfigurationError, match="source.shape"):
        parse_config(_cfg(source={"shape": [3, 3, 3], "count": 2}))
    with pytest.raises(ConfigurationError, match="channel.M"):
        parse_config(_cfg(channel={"type": "mimo", "snr_db": [5], "M": 4},
                          source={"shape": [3, 3, 2], "count": 2}))


def test_resolved_config_derives_operating_points():
    cfg = parse_config(json.dumps({
        "channel": {"snr_db": [0.0]},
        "codec": {"enabled": True, "C": 64},
        "mode": {"kind": "fixed_step", "t_target": 300},
    }))
    res = resolved_config(cfg)
    # channel count to compression fraction: round(0.0013 * 64 * 256) = 21
    assert res["codec"]["k"] == pytest.approx(21 / 256, rel=1e-15)
    assert res["codec"]["compressed_length"] == 21
    # unit noise maps to the step whose alpha-bar is nearest 1/2
    assert res["channel"]["cells"][0]["step_u"] == 259
    assert res["mode"]["t_target_sigma2"] > 0.0
    assert res["mode"]["t_target_snr_db"] == pytest.approx(
        -10.0 * math.log10(res["mode"]["t_target_sigma2"]), rel=1e-12
    )
    assert res["schedule"]["max_sigma2"] > 2e4


def test_main_rejects_a_t_target_below_an_awgn_cell(tmp_path, capsys):
    text = _cfg(
        source={"shape": [2, 2, 4], "count": 3},
        mode={"kind": "fixed_step", "t_target": 40},
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", _write_cfg(tmp_path, text), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "configuration error: channel.snr_db[0]: cannot compensate to step 40: "
        "channel variance 0.501187 exceeds the step-equivalent variance 0.0197356\n"
    )
    assert not out.exists()


def test_t_target_at_exactly_the_cell_variance_runs(tmp_path):
    """Zero compensation is feasible: a cell whose variance is exactly the
    step's parses and runs from that step."""
    variance = [step_to_sigma2(build_linear_schedule(), t) for t in range(1001)]
    # a sigma whose square is the step variance bit for bit
    t = next(t for t in range(40, 1001) if math.sqrt(variance[t]) ** 2 == variance[t])
    sigma = math.sqrt(variance[t])
    for kind in ("fixed_step", "compare"):
        cfg = parse_config(_cfg(channel={"sigma": [sigma]}, mode={"kind": kind, "t_target": t}))
        assert cfg.channel.cells[0].sigma2 == variance[t]
        row = run_simulate(cfg, out_dir=str(tmp_path / kind)).rows[0]
        assert all(v is None or math.isfinite(v) for v in row[3:])
    with pytest.raises(ConfigurationError, match=r"^channel\.sigma\[0\]: cannot compensate"):
        parse_config(_cfg(channel={"sigma": [math.nextafter(sigma, 1.0)]},
                          mode={"kind": "fixed_step", "t_target": t}))


def test_main_rejects_a_t_target_below_a_pinned_rayleigh_cell(tmp_path, capsys):
    text = _cfg(
        channel={"type": "rayleigh", "h": [1.0, 0.0], "snr_db": [3.0]},
        source={"shape": [2, 2, 4], "count": 3},
        mode={"kind": "fixed_step", "t_target": 40},
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", _write_cfg(tmp_path, text), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "configuration error: channel.snr_db[0]: cannot compensate to step 40: "
        "channel variance 0.501187 exceeds the step-equivalent variance 0.0197356\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("convention", ["gain_weighted", "mmse"])
def test_t_target_at_exactly_a_pinned_fade_carried_variance_runs(tmp_path, convention):
    """Either convention compensates from sigma^2 / |h|^2; at exactly the
    step's variance that parses, runs, and one ulp more is rejected."""
    variance = [step_to_sigma2(build_linear_schedule(), t) for t in range(1001)]
    t = next(t for t in range(40, 1001) if math.sqrt(variance[t]) ** 2 == variance[t])
    # |h|^2 = 4 and (2 sigma)^2 = 4 sigma^2 are exact, so the quotient is sigma^2
    sigma = 2.0 * math.sqrt(variance[t])

    def config(s):
        channel = {"type": "rayleigh", "h": [2.0, 0.0], "sigma": [s], "convention": convention}
        return _cfg(channel=channel, mode={"kind": "fixed_step", "t_target": t})

    row = run_simulate(parse_config(config(sigma)), out_dir=str(tmp_path)).rows[0]
    assert all(v is None or math.isfinite(v) for v in row[3:])
    with pytest.raises(ConfigurationError, match=r"^channel\.sigma\[0\]: cannot compensate"):
        parse_config(config(math.nextafter(sigma, 1.0)))


def test_t_target_is_not_checked_against_an_unpinned_rayleigh_fade():
    # each trial draws its own fade, so the carried variance is unknown at parse time
    cfg = parse_config(_cfg(channel={"type": "rayleigh", "snr_db": [3.0]},
                            mode={"kind": "fixed_step", "t_target": 40}))
    assert cfg.channel.h is None


def test_resolved_config_marks_saturating_cells():
    # a fade moves each trial's variance, so the nominal one may saturate
    cfg = parse_config('{"channel": {"type": "rayleigh", "sigma": [200.0]}}')
    cell = resolved_config(cfg)["channel"]["cells"][0]
    assert cell["step_u"] is None
    assert cell["saturates"] is True


# ---------------------------------------------------------------------------
# simulate


def test_simulate_row_per_cell_across_channels(tmp_path):
    total = 0
    snrs = [0.0, 3.0, 6.0, 9.0, 12.0]
    for ctype in ("awgn", "rayleigh", "mimo"):
        cfg = parse_config(_cfg(channel={"type": ctype, "snr_db": snrs}))
        result = run_simulate(cfg, out_dir=str(tmp_path / ctype))
        assert [row[0] for row in result.rows] == [ctype] * 5
        assert [row[1] for row in result.rows] == snrs
        total += len(result.rows)
    assert total == 15


def test_simulate_decomposes_one_mimo_channel_per_trial(tmp_path, monkeypatch):
    """The benchmark's tracer counts channels.mimo_svd_decompose calls, so a
    MIMO trial goes through it rather than building MimoChannel directly."""
    calls = []
    real = run_module.mimo_svd_decompose
    monkeypatch.setattr(run_module, "mimo_svd_decompose", lambda H: calls.append(H) or real(H))
    cfg = parse_config(_cfg(channel={"type": "mimo", "snr_db": [3.0, 9.0]},
                            source={**SMALL_SOURCE, "count": 3}))
    result = run_simulate(cfg, out_dir=str(tmp_path))
    assert len(result.rows) == 2 and len(calls) == 6


def test_simulate_writes_csv_log_and_resolved_config(tmp_path):
    cfg = parse_config(_cfg())
    result = run_simulate(cfg, out_dir=str(tmp_path))
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert lines[0] == "channel,snr_db,sigma2,step_u,trials,psnr_db,ssim,mse"
    assert len(lines) == 1 + len(result.rows)
    assert (tmp_path / "run.log").exists()
    replay = json.loads((tmp_path / "resolved_config.json").read_text())
    assert replay["seed"] == cfg.seed
    assert replay["channel"]["cells"][0]["snr_db"] == 3.0


def test_resolved_config_of_a_noiseless_cell_is_strict_json(tmp_path):
    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    run_simulate(parse_config(_cfg(channel={"sigma": [0.5, 0.0]})), out_dir=str(tmp_path))
    text = (tmp_path / "resolved_config.json").read_text()
    cells = json.loads(text, parse_constant=reject)["channel"]["cells"]
    assert cells[0]["snr_db"] == pytest.approx(-20.0 * math.log10(0.5), rel=1e-12)
    assert cells[1] == {"snr_db": None, "sigma2": 0.0, "step_u": 0}


def test_simulate_is_deterministic_and_thread_invariant(tmp_path):
    text = _cfg(channel={"snr_db": [0.0, 3.0, 6.0]})
    outs = []
    for name, threads in (("a", 1), ("b", 1), ("c", 3)):
        run_simulate(parse_config(text), out_dir=str(tmp_path / name), threads=threads)
        outs.append((tmp_path / name / "results.csv").read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_simulate_ssim_blocks_do_not_change_the_csv(tmp_path, monkeypatch):
    """Seven trials per cell scored one, three (two full blocks and a
    partial one) or all seven (the default) per ``ssim_batch`` call."""
    text = _cfg(source={"shape": [3, 3, 2], "count": 7},
                channel={"type": "rayleigh", "snr_db": [0.0, 6.0]})
    n = 3 * 3 * 2
    default = run_module._SSIM_BLOCK_ELEMENTS
    assert default // n >= 7
    outs = []
    for name, elements in (("one", 1), ("three", 3 * n), ("default", default)):
        monkeypatch.setattr(run_module, "_SSIM_BLOCK_ELEMENTS", elements)
        result = run_simulate(parse_config(text), out_dir=str(tmp_path / name))
        assert all(0.0 < row[6] < 1.0 for row in result.rows)
        outs.append((tmp_path / name / "results.csv").read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_simulate_logs_throughput_and_reruns_byte_identical(tmp_path):
    text = _cfg(source={"shape": [3, 3, 2], "count": 3}, channel={"snr_db": [0.0, 6.0]})
    outs = []
    for name in ("a", "b"):
        run_simulate(parse_config(text), out_dir=str(tmp_path / name))
        outs.append((tmp_path / name / "results.csv").read_bytes())
    assert outs[0] == outs[1]
    lines = (tmp_path / "a" / "run.log").read_text().splitlines()
    assert lines[-3].startswith("simulate wall_s=")
    match = re.fullmatch(r"simulate wall_s=(\S+) trials_per_s=(\S+)", lines[-3])
    wall_s, trials_per_s = float(match.group(1)), float(match.group(2))
    assert wall_s > 0.0
    assert trials_per_s == pytest.approx(2 * 3 / wall_s, rel=1e-5)
    match = re.fullmatch(r"simulate reverse_steps=(\d+) steps_per_s=(\S+)", lines[-1])
    steps, steps_per_s = int(match.group(1)), float(match.group(2))
    with (tmp_path / "a" / "results.csv").open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert steps == sum(int(r["trials"]) * int(r["step_u"]) for r in rows) > 0
    assert steps_per_s == pytest.approx(steps / wall_s, rel=1e-5)
    # one stream: one reverse step call per trial-step
    assert lines[-2] == f"simulate chain_steps={steps}"


def _logged_steps(path) -> tuple[int, int]:
    """``run.log``'s chain steps and trial-steps, from its last two lines."""
    chain, last = path.read_text().splitlines()[-2:]
    return (
        int(re.fullmatch(r"simulate chain_steps=(\d+)", chain).group(1)),
        int(re.fullmatch(r"simulate reverse_steps=(\d+) steps_per_s=\S+", last).group(1)),
    )


@pytest.mark.parametrize(
    "overrides, one_stream",
    [
        ({"channel": {"snr_db": [0.0, 6.0, 40.0]}}, True),
        ({"channel": {"type": "mimo", "M": 2, "snr_db": [3.0, 12.0]}}, False),
        ({"channel": {"snr_db": [6.0, 9.0]}, "mode": {"kind": "compare", "t_target": 300}}, False),
        ({"channel": {"snr_db": [9.0]}, "mode": {"kind": "fixed_step", "t_target": 300}}, True),
    ],
    ids=["awgn-adaptive", "mimo-adaptive", "awgn-compare", "awgn-fixed-step"],
)
def test_simulate_makes_one_reverse_step_call_per_trial_step(
    tmp_path, monkeypatch, overrides, one_stream
):
    """One ``reverse_step`` call per trial-step with one stream and one
    route per trial, as counted in ``run.log``; with one route also as
    ``results.csv`` implies (trials x step_u per cell).  The streams and
    routes of a trial share one chain: one call per step of the longest
    row, so ``run.log`` counts those calls apart from the trial-steps."""
    calls = []
    real = diffusion.reverse_step

    def counting(y_t, t, *args):
        calls.append(t)
        return real(y_t, t, *args)

    monkeypatch.setattr(diffusion, "reverse_step", counting)
    steps_u = []  # each trial's per-stream steps, mapped from the channel's variances
    cfg = parse_config(_cfg(source={"shape": [2, 2, 4], "count": 3}, **overrides))
    for name in ("awgn_transmit", "mimo_transmit"):

        def recording(*args, real_transmit=getattr(run_module, name)):
            out = real_transmit(*args)
            steps_u.append(
                [sigma2_to_step(cfg.schedule.built, s2).step_u for s2 in out.mapped_sigma2]
            )
            return out

        monkeypatch.setattr(run_module, name, recording)
    run_simulate(cfg, out_dir=str(tmp_path))
    chain_steps, trial_steps = _logged_steps(tmp_path / "run.log")
    if cfg.channel.type == "mimo":
        assert len(steps_u) == 2 * 3 and all(len(u) == 2 for u in steps_u)
        assert trial_steps == sum(map(sum, steps_u))
        assert len(calls) == chain_steps == sum(map(max, steps_u)) < trial_steps
        return
    assert len(steps_u) == len(cfg.channel.cells) * 3 and all(len(u) == 1 for u in steps_u)
    if cfg.mode.kind == "compare":  # adaptive from u, compensate and forward from t_target
        t_target = cfg.mode.t_target
        assert trial_steps == sum(u + 2 * t_target for (u,) in steps_u)
        assert len(calls) == chain_steps == sum(max(u, t_target) for (u,) in steps_u)
        assert chain_steps < trial_steps
        return
    assert len(calls) == chain_steps == trial_steps > 0
    if one_stream:
        with (tmp_path / "results.csv").open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(calls) == sum(int(r["trials"]) * int(r["step_u"]) for r in rows)


def _run_adaptive_route(base, sigma2s, monkeypatch):
    """The adaptive route's ``_receive`` on ``base`` split into one stream
    per variance, each carried and mapped as an AWGN channel reports it;
    returns the streams' mappings and what the route handed the chain
    (starts and steps)."""
    cfg = parse_config(_cfg())
    schedule = cfg.schedule.built
    out = ChannelOutput(received=base, effective_sigma2=sigma2s, mapped_sigma2=sigma2s)
    mappings = [sigma2_to_step(schedule, s2) for s2 in sigma2s]
    handed = []
    real = run_module._denoise_rows

    def recording(starts, steps, *args):
        seen = []
        handed.append((seen, list(steps)))

        def passing():  # each start as the chain reads it, not before
            for y in starts:
                seen.append(y.copy())
                yield y

        return real(passing(), steps, *args)

    monkeypatch.setattr(run_module, "_denoise_rows", recording)
    rng = np.random.default_rng(0)
    setup = run_module._trial_setup(cfg)
    # the source only starts the forward route, so any array stands in for it
    (recon,), steps = run_module._receive(setup, ("adaptive",), base, base, out, rng)
    return mappings, handed[0], recon, steps, rng


def test_adaptive_route_scales_each_stream_onto_its_mapped_step(monkeypatch):
    schedule = build_linear_schedule()
    sigma2s = (step_to_sigma2(schedule, 300), step_to_sigma2(schedule, 120))
    base = np.linspace(-1.0, 1.0, 32)
    mappings, (starts, steps), _, run_steps, _ = _run_adaptive_route(base, sigma2s, monkeypatch)
    assert steps == [300, 120] and run_steps == (420, 300)
    for i, (mapping, start) in enumerate(zip(mappings, starts)):
        assert mapping.residual == 0.0
        assert start.tobytes() == (mapping.scale * base[16 * i : 16 * (i + 1)]).tobytes()


def test_adaptive_route_passes_a_clean_signal_through(monkeypatch):
    """Noise-free, a stream maps to step 0 at scale 1: no reverse step
    runs, nothing is drawn, and the received values come back as they are."""
    base = np.linspace(-1.0, 1.0, 8)
    mappings, _, recon, run_steps, rng = _run_adaptive_route(base, (0.0,), monkeypatch)
    assert mappings[0].step_u == 0 and run_steps == (0, 0)
    assert recon.tobytes() == base.tobytes()
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


def test_compensate_route_holds_one_streams_noise_draw_at_a_time():
    """A 4-stream chain from ``t_target`` 800 lays each row's draw into
    its noise table as it is made: the receive's peak allocation is the
    table and one row's draw, not the table and every draw.  With one
    route that is 1.25 tables, not 2.  In compare mode the table also
    holds the adaptive route's four rows and the forward route's row,
    which is as wide as the four streams: the table and that row's draw
    make about 1.33 tables, where every draw would make 2."""
    for kind in ("fixed_step", "compare"):
        cfg = parse_config(_cfg(source={"shape": [8, 8, 4], "count": 1},
                                mode={"kind": kind, "t_target": 800}))
        setup = run_module._trial_setup(cfg)
        mapping = sigma2_to_step(cfg.schedule.built, 0.01)
        out = ChannelOutput(received=np.linspace(-1.0, 1.0, 256), effective_sigma2=(0.01,) * 4,
                            mapped_sigma2=(0.01,) * 4)
        routes = run_module._ROUTES[kind]
        table_bytes = (800 - 1) * (256 if kind == "fixed_step" else 3 * 256) * 8
        # the source only starts the forward route; the received values stand in
        args = (setup, routes, out.received, out.received, out)
        # the first call's one-time work (imports) is not the receive's
        run_module._receive(*args, np.random.default_rng(0))
        tracemalloc.start()
        try:
            _, steps = run_module._receive(*args, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if kind == "fixed_step":
            assert steps == (4 * 800, 800)
        else:
            assert steps == (4 * mapping.step_u + 5 * 800, 800)
        assert peak < 1.4 * table_bytes, kind


def test_one_chain_receive_matches_each_row_denoised_in_turn():
    """A 2-stream MIMO compare trial runs its five rows (two adaptive
    streams, one of them clean at step 0, two compensated streams and the
    forward row, twice as wide as a stream) as one chain.  Each route's
    result and the generator's end state are those of taking each row's
    start and denoising it on its own, row by row; the forward row's start
    is the clean source topped up to ``t_target`` from variance 0."""
    cfg = parse_config(_cfg(source={"shape": [2, 2, 4], "count": 1},
                            channel={"type": "mimo", "M": 2, "snr_db": [3.0]},
                            mode={"kind": "compare", "t_target": 300}))
    setup = run_module._trial_setup(cfg)
    schedule = cfg.schedule.built
    sigma2s = (0.0, step_to_sigma2(schedule, 120))
    out = ChannelOutput(received=np.linspace(-1.0, 1.0, 16), effective_sigma2=sigma2s,
                        mapped_sigma2=sigma2s)
    mappings = [sigma2_to_step(schedule, s2) for s2 in sigma2s]
    y0 = np.random.default_rng(5).standard_normal(16)
    rng = np.random.default_rng(7)
    recons, steps = run_module._receive(setup, run_module._ROUTES["compare"], y0,
                                        out.received, out, rng)

    ref_rng = np.random.default_rng(7)
    streams = (out.received[:8], out.received[8:])

    def denoised(start, u):
        return denoise_from_step(start, u, setup.denoiser, schedule, ref_rng)

    adaptive = [denoised(m.scale * s, m.step_u) for m, s in zip(mappings, streams)]
    compensate = [denoised(compensate_to_step(s, s2, 300, schedule, ref_rng), 300)
                  for s, s2 in zip(streams, sigma2s)]
    forward = denoised(compensate_to_step(y0, 0.0, 300, schedule, ref_rng), 300)

    assert [m.step_u for m in mappings] == [0, 120]
    assert steps == (0 + 120 + 2 * 300 + 300, 300)
    assert recons[0].tobytes() == np.concatenate(adaptive).tobytes()
    assert recons[1].tobytes() == np.concatenate(compensate).tobytes()
    assert recons[2].tobytes() == forward.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_simulate_seed_changes_results(tmp_path):
    a = run_simulate(parse_config(_cfg(seed=1)), out_dir=str(tmp_path / "a"))
    b = run_simulate(parse_config(_cfg(seed=2)), out_dir=str(tmp_path / "b"))
    assert a.rows[0][5] != b.rows[0][5]


def test_simulate_compare_mode_columns(tmp_path):
    cfg = parse_config(_cfg(mode={"kind": "compare", "t_target": 200},
                            source={"shape": [2, 2, 2], "count": 4}))
    result = run_simulate(cfg, out_dir=str(tmp_path))
    assert result.header == (
        "channel", "snr_db", "sigma2", "trials",
        "psnr_adaptive_db", "psnr_compensate_db", "psnr_forward_db",
        "delta_adaptive_compensate_db", "delta_compensate_forward_db",
        "ci95_lo_db", "ci95_hi_db",
    )
    row = result.rows[0]
    assert row[9] <= row[10]  # interval is ordered


def test_simulate_errors_carry_cell_coordinates(tmp_path):
    # sigma^2 |h|^2 = 4e4 exceeds the schedule's maximum representable noise;
    # the parser leaves a fade, even a pinned one, to the run
    cfg = parse_config(_cfg(channel={"type": "rayleigh", "h": [1.0, 0.0], "sigma": [200.0]}))
    with pytest.raises(RuntimeError, match="cell channel=rayleigh"):
        run_simulate(cfg, out_dir=str(tmp_path))


def test_fixed_step_maps_nothing_so_a_gain_weighted_fade_runs(tmp_path):
    """A pinned |h| = 3 at -34.77 dB carries 3000 / 9 = 333, well under
    step 1000's variance, but the gain-weighted mapping reads 3000 * 9,
    past the schedule's last step.  Fixed-step mode compensates from the
    carried variance and never maps, so it runs with the bytes of the
    mmse convention; compare mode's adaptive route maps and fails."""

    def config(convention, kind="fixed_step"):
        return _cfg(
            channel={"type": "rayleigh", "h": [3.0, 0.0], "snr_db": [-34.77, 0.0],
                     "convention": convention},
            source={"shape": [2, 2, 4], "count": 3},
            mode={"kind": kind, "t_target": 1000},
        )

    for convention in ("gain_weighted", "mmse"):
        run_simulate(parse_config(config(convention)), out_dir=str(tmp_path / convention))
    csv_bytes = [(tmp_path / c / "results.csv").read_bytes() for c in ("gain_weighted", "mmse")]
    assert csv_bytes[0] == csv_bytes[1]
    with pytest.raises(
        RuntimeError, match=r"^cell channel=rayleigh snr_db=-34\.77: noise variance 26992\.5 exceeds"
    ):
        run_simulate(parse_config(config("gain_weighted", "compare")), out_dir=str(tmp_path / "c"))


def test_simulate_runs_cells_whose_nominal_variance_saturates(tmp_path):
    # -44.5 dB is past the schedule's last step, but a fixed |h|^2 = 0.25
    # maps every trial at sigma2 / 4, so the cell runs without a step_u
    text = _cfg(channel={"type": "rayleigh", "snr_db": [-44.5, 0.0], "h": [0.5, 0.0]})
    cfg = parse_config(text)
    result = run_simulate(cfg, out_dir=str(tmp_path))
    assert [row[1] for row in result.rows] == [-44.5, 0.0]
    assert result.rows[0][3] is None and result.rows[1][3] is not None
    assert all(math.isfinite(row[5]) for row in result.rows)
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert lines[1].split(",")[3] == ""
    cells = resolved_config(cfg)["channel"]["cells"]
    assert cells[0]["saturates"] is True and cells[0]["step_u"] is None
    assert "saturates" not in cells[1]


def test_simulate_with_codec_round_trip(tmp_path):
    cfg = parse_config(_cfg(codec={"enabled": True, "k": 0.5},
                            source={"shape": [4, 4, 2], "count": 2}))
    result = run_simulate(cfg, out_dir=str(tmp_path))
    assert len(result.rows) == 1
    assert math.isfinite(result.rows[0][5])


# ---------------------------------------------------------------------------
# train and sweep runners


TRAIN_CFG = {
    "channel": {"snr_db": [5.0]},
    "source": {"shape": [2, 2, 2], "count": 2},
    "codec": {"k": 0.5, "arch": {"hidden": 6, "blocks": 1}},
    "train": {"steps": 4, "batch": 2, "holdout": 2, "eval_every": 2},
}


def test_train_writes_params_and_loss_table(tmp_path):
    params, result = run_train(parse_config(json.dumps(TRAIN_CFG)), out_dir=str(tmp_path))
    assert result.header == ("step", "l_kl", "l_mse", "l_g", "total", "eval_psnr")
    assert [row[0] for row in result.rows] == [1, 2, 3, 4]
    assert result.rows[0][5] is None and result.rows[1][5] is not None
    restored = load_codec(str(tmp_path / "codec.npz"))
    assert restored.k == params.k
    assert (tmp_path / "results.csv").exists()


def test_train_logs_throughput_and_reruns_byte_identical(tmp_path):
    outputs = []
    for name in ("a", "b"):
        run_train(parse_config(json.dumps(TRAIN_CFG)), out_dir=str(tmp_path / name))
        outputs.append([(tmp_path / name / f).read_bytes() for f in ("results.csv", "codec.npz")])
    assert outputs[0] == outputs[1]
    lines = (tmp_path / "a" / "run.log").read_text().splitlines()
    throughput = [line for line in lines if line.startswith("train wall_s=")]
    assert len(throughput) == 1
    match = re.fullmatch(r"train wall_s=(\S+) steps_per_s=(\S+)", throughput[0])
    wall_s, steps_per_s = float(match.group(1)), float(match.group(2))
    assert wall_s > 0.0
    assert steps_per_s == pytest.approx(TRAIN_CFG["train"]["steps"] / wall_s, rel=1e-5)


def test_train_requires_compression_setting(tmp_path):
    with pytest.raises(ConfigurationError, match=r"codec.C, codec.k"):
        run_train(parse_config(_cfg()), out_dir=str(tmp_path))


# a codec whose widths and switches all differ from the defaults
HANDOFF_CODEC = {"k": 0.5, "arch": {"hidden": 6, "blocks": 3}, "snr_to_mu": True,
                 "power_norm": False, "snr_db_range": [-2, 8]}
HANDOFF_ARCH = ("CodecArch(hidden=6, blocks=3, power_norm=False, snr_conditioning=True, "
                "snr_to_mu=True, snr_db_range=(-2.0, 8.0))")


@pytest.fixture(scope="module")
def trained_codec(tmp_path_factory):
    out = tmp_path_factory.mktemp("train")
    cfg = {**TRAIN_CFG, "codec": HANDOFF_CODEC, "train": {**TRAIN_CFG["train"], "steps": 2}}
    assert main(["train", "--config", _write_cfg(out, json.dumps(cfg)), "--out", str(out)]) == 0
    return str(out / "codec.npz")


def _simulate_stored(tmp_path, codec, source=SMALL_SOURCE):
    out = tmp_path / "out"
    text = _cfg(codec={"enabled": True, **codec}, source=source)
    return main(["simulate", "--config", _write_cfg(tmp_path, text), "--out", str(out)]), out


def test_simulate_runs_a_trained_codec_of_the_configured_arch(tmp_path, trained_codec):
    code, out = _simulate_stored(tmp_path, {**HANDOFF_CODEC, "params_path": trained_codec})
    assert code == 0
    replay = json.loads((out / "resolved_config.json").read_text())["codec"]
    assert replay["arch"] == {"hidden": 6, "blocks": 3}
    assert (replay["snr_to_mu"], replay["power_norm"], replay["snr_db_range"]) == (True, False, [-2.0, 8.0])


def test_train_writes_the_configured_params_name_that_simulate_loads(tmp_path):
    """``output.params`` is the file a run writes, whatever its suffix, and
    a simulate run loads it from there."""
    out = tmp_path / "train"
    cfg = {**TRAIN_CFG, "codec": HANDOFF_CODEC, "output": {"params": "weights.bin"}}
    assert main(["train", "--config", _write_cfg(tmp_path, json.dumps(cfg)), "--out", str(out)]) == 0
    assert json.loads((out / "resolved_config.json").read_text())["output"]["params"] == "weights.bin"
    assert sorted(os.listdir(out)) == ["resolved_config.json", "results.csv", "run.log", "weights.bin"]
    code, sim = _simulate_stored(tmp_path, {**HANDOFF_CODEC, "params_path": str(out / "weights.bin")})
    assert code == 0 and (sim / "results.csv").exists()


@pytest.mark.parametrize("codec, configured", [
    ({"k": 0.5},
     "CodecArch(hidden=64, blocks=2, power_norm=True, snr_conditioning=True, "
     "snr_to_mu=False, snr_db_range=(0.0, 12.0))"),
    ({**HANDOFF_CODEC, "snr_db_range": [0, 12]},
     "CodecArch(hidden=6, blocks=3, power_norm=False, snr_conditioning=True, "
     "snr_to_mu=True, snr_db_range=(0.0, 12.0))"),
], ids=["defaults", "one-switch"])
def test_simulate_rejects_a_stored_codec_of_another_arch(tmp_path, capsys, trained_codec, codec, configured):
    code, out = _simulate_stored(tmp_path, {**codec, "params_path": trained_codec})
    assert code == 2
    assert capsys.readouterr().err == (
        f"configuration error: codec.params_path: stored arch {HANDOFF_ARCH} "
        f"does not match configured arch {configured}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("codec, source, message", [
    ({}, {"shape": [2, 2, 4], "count": 2},
     "stored shape (2, 2, 2) does not match source shape (2, 2, 4)"),
    ({"k": 0.25}, SMALL_SOURCE, "stored length 4 does not match configured compression"),
], ids=["shape", "length"])
def test_simulate_rejects_a_stored_codec_of_another_size(
    tmp_path, capsys, trained_codec, codec, source, message
):
    codec = {**HANDOFF_CODEC, **codec, "params_path": trained_codec}
    code, _ = _simulate_stored(tmp_path, codec, source)
    assert code == 2
    assert capsys.readouterr().err == f"configuration error: codec.params_path: {message}\n"


def _sweep_cfg(values, param="lambda", gamma=0.0):
    cfg = dict(TRAIN_CFG)
    cfg["loss"] = {"gamma": gamma}
    cfg["sweep"] = {"param": param, "values": values, "steps": 2, "trials": 2}
    return json.dumps(cfg)


def test_sweep_emits_one_row_per_value(tmp_path):
    result = run_sweep(parse_config(_sweep_cfg([1.0, 0.1, 0.01])), out_dir=str(tmp_path))
    assert result.header == ("param", "value", "psnr_db", "ssim", "mse")
    assert [row[:2] for row in result.rows] == [
        ("lambda", 1.0), ("lambda", 0.1), ("lambda", 0.01)]
    assert all(math.isfinite(row[2]) and math.isfinite(row[4]) for row in result.rows)


def test_sweep_rows_are_reorder_invariant(tmp_path):
    fwd = run_sweep(parse_config(_sweep_cfg([1.0, 0.1])), out_dir=str(tmp_path / "f"))
    rev = run_sweep(parse_config(_sweep_cfg([0.1, 1.0])), out_dir=str(tmp_path / "r"))
    assert {r[1]: r for r in fwd.rows} == {r[1]: r for r in rev.rows}


def test_sweep_requires_section_and_values(tmp_path):
    with pytest.raises(ConfigurationError, match="sweep"):
        run_sweep(parse_config(json.dumps(TRAIN_CFG)), out_dir=str(tmp_path))
    with pytest.raises(ConfigurationError, match="sweep.values"):
        parse_config(_sweep_cfg([]))


def test_sweep_errors_carry_grid_coordinates(tmp_path):
    # a huge learning rate makes the loss non-finite on the second step
    cfg = json.loads(_sweep_cfg([0.5]))
    cfg["train"] = {**cfg["train"], "lr": 1e300}
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match="grid lambda=0.5: training aborted"):
            run_sweep(parse_config(json.dumps(cfg)), out_dir=str(tmp_path))


def test_main_rejects_out_of_range_sweep_channel_count_before_training(tmp_path, capsys):
    # round(0.0013 * 1000 * 8) = 10 symbols do not fit an 8-element latent
    cfg_path = _write_cfg(tmp_path, _sweep_cfg([100, 1000], param="C"))
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 2
    assert "configuration error: sweep.values[1]: channel count 1000" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("ctype", ["awgn", "rayleigh"])
def test_main_rejects_a_saturating_sweep_variance_before_training(
    tmp_path, capsys, monkeypatch, ctype
):
    # evaluation runs over the channel at the training variance, 1e5 here
    cfg = json.loads(_sweep_cfg([0.1, 1.0]))
    cfg["train"] = {**cfg["train"], "snr_db": -50}
    cfg["channel"] = {**cfg["channel"], "type": ctype}
    calls = []
    monkeypatch.setattr(run_module, "train_codec", lambda *a, **k: calls.append(a))
    out = tmp_path / "out"
    assert main(["sweep", "--config", _write_cfg(tmp_path, json.dumps(cfg)), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "configuration error: train.snr_db: noise variance 100000 exceeds the maximum "
        "representable variance 24777.1 at the final step of the schedule\n"
    )
    assert calls == [] and not out.exists()


def _file_sweep_cfg(tmp_path, **arrays):
    path = tmp_path / "latents.npz"
    np.savez(path, **arrays)
    cfg = json.loads(_sweep_cfg([1.0]))
    cfg["source"] = {**cfg["source"], "kind": "file", "path": str(path)}
    return parse_config(json.dumps(cfg))


def test_sweep_rejects_file_source_without_latents(tmp_path):
    cfg = _file_sweep_cfg(tmp_path, other=np.zeros((2, 2, 2, 2)))
    with pytest.raises(ConfigurationError, match="source.path"):
        run_sweep(cfg, out_dir=str(tmp_path / "out"))


def test_main_rejects_an_empty_latents_archive(tmp_path, capsys):
    path = tmp_path / "latents.npz"
    np.savez(path, latents=np.zeros((0, 2, 2, 2)))
    text = _cfg(source={**SMALL_SOURCE, "kind": "file", "path": str(path)})
    out = tmp_path / "out"
    assert main(["simulate", "--config", _write_cfg(tmp_path, text), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"configuration error: source.path: {path} holds no latents\n"


@pytest.mark.parametrize("command", ["simulate", "train", "sweep"])
def test_main_rejects_non_finite_latents_before_any_trial(tmp_path, capsys, monkeypatch, command):
    path = tmp_path / "latents.npz"
    latents = np.ones((3, 2, 2, 2))
    latents[2, 0, 1, 1] = np.nan
    np.savez(path, latents=latents)
    cfg = json.loads(_sweep_cfg([1.0]))
    cfg["source"] = {**cfg["source"], "kind": "file", "path": str(path), "count": 3}
    calls = []  # a simulate or sweep trial transmits; training calls train_codec
    for name in ("_transmit", "train_codec"):
        monkeypatch.setattr(run_module, name, lambda *a, name=name, **k: calls.append(name))
    out = tmp_path / "out"
    assert main([command, "--config", _write_cfg(tmp_path, json.dumps(cfg)), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"configuration error: source.path: {path} holds non-finite latents\n"
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("dtype", ["complex128", "bool", "U1"])
def test_main_rejects_latents_that_are_not_integer_or_float(tmp_path, capsys, monkeypatch, dtype):
    """A cast to float64 would drop a complex latent's imaginary part."""
    path = tmp_path / "latents.npz"
    np.savez(path, latents=np.ones((3, 2, 2, 2)).astype(dtype))
    text = _cfg(source={**SMALL_SOURCE, "kind": "file", "path": str(path)})
    calls = []
    monkeypatch.setattr(run_module, "_transmit", lambda *a, **k: calls.append(a))
    out = tmp_path / "out"
    assert main(["simulate", "--config", _write_cfg(tmp_path, text), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: source.path: {path} holds latents of dtype {np.dtype(dtype)}, "
        "not integer or float\n"
    )
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.float32])
def test_integer_and_float_latents_load_as_float64(tmp_path, dtype):
    cfg = _file_sweep_cfg(tmp_path, latents=np.full((2, 2, 2, 2), 4, dtype=dtype))
    rows = run_module._load_source(cfg)
    assert rows.dtype == np.float64 and np.array_equal(rows, np.full((2, 8), 4.0))


def test_sweep_trains_and_evaluates_on_file_source(tmp_path):
    cfg = _file_sweep_cfg(tmp_path, latents=np.full((2, 2, 2, 2), 4.0))
    from_file = run_sweep(cfg, out_dir=str(tmp_path / "file"))
    gaussian = run_sweep(parse_config(_sweep_cfg([1.0])), out_dir=str(tmp_path / "gaussian"))
    assert from_file.rows[0][4] > 4.0 * gaussian.rows[0][4]


@pytest.mark.parametrize("runner", [run_simulate, run_train, run_sweep])
def test_each_run_reads_the_source_file_once(tmp_path, monkeypatch, runner):
    path = tmp_path / "latents.npz"
    np.savez(path, latents=np.random.default_rng(3).standard_normal((3, 2, 2, 2)))
    cfg = json.loads(_sweep_cfg([0.1, 1.0]))
    cfg["source"] = {**cfg["source"], "kind": "file", "path": str(path), "count": 4}
    reads, load = [], np.load

    def counting_load(file, *args, **kwargs):
        reads.append(str(file))
        return load(file, *args, **kwargs)

    monkeypatch.setattr(np, "load", counting_load)
    runner(parse_config(json.dumps(cfg)), out_dir=str(tmp_path / "out"))
    assert reads == [str(path)]


def _write_text_file(path):
    path.write_text("not an archive\n")


def _write_renamed_npy(path):
    np.save(path.with_suffix(".npy"), np.zeros((2, 2, 2, 2)))
    path.with_suffix(".npy").rename(path)


def _write_foreign_archive(path):
    np.savez(path, latents=np.zeros((2, 2, 2, 2)))


@pytest.mark.parametrize("write, section, message", [
    (_write_text_file, "source", None),  # numpy's own message follows
    (_write_renamed_npy, "source", "not an .npz archive"),
    (_write_foreign_archive, "codec", "not a saved codec: no 'layout_version' array"),
], ids=["text-as-source", "npy-as-source", "foreign-archive-as-codec"])
def test_main_rejects_a_malformed_archive_before_any_output(tmp_path, capsys, write, section, message):
    path = tmp_path / "input.npz"
    write(path)
    if section == "source":
        text, field = _cfg(source={**SMALL_SOURCE, "kind": "file", "path": str(path)}), "source.path"
    else:
        text, field = _cfg(codec={"enabled": True, "k": 0.5, "params_path": str(path)}), "codec.params_path"
    out = tmp_path / "out"
    assert main(["simulate", "--config", _write_cfg(tmp_path, text), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    prefix = f"configuration error: {field}: cannot load {path}: "
    assert err.startswith(prefix) and err.count("\n") == 1
    if message is not None:
        assert err == prefix + message + "\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# CSV and report


def test_emit_csv_empty_table(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv(RunResult(("a", "b"), ()), str(path))
    assert path.read_text() == "a,b\n"


def test_emit_csv_one_row(tmp_path):
    path = tmp_path / "one.csv"
    emit_csv(RunResult(("x", "y", "z", "w"), (("awgn", 1.25, None, True),)), str(path))
    assert path.read_text() == "x,y,z,w\nawgn,1.25,,1\n"


def test_emit_csv_round_trip_six_significant_digits(tmp_path):
    rng = np.random.default_rng(0)
    values = [float(v) for v in rng.standard_normal(20) * 10.0 ** rng.integers(-8, 9, 20)]
    path = tmp_path / "rt.csv"
    emit_csv(RunResult(("v",), tuple((v,) for v in values)), str(path))
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    parsed = [float(row[0]) for row in rows[1:]]
    for original, back in zip(values, parsed):
        assert back == pytest.approx(original, rel=1e-5)
        assert format(back, ".6g") == format(original, ".6g")


def test_report_renders_aligned_table(tmp_path):
    path = tmp_path / "t.csv"
    emit_csv(RunResult(("name", "value"), (("long-row-label", 1.5), ("x", 123.25))), str(path))
    text = render_report(str(path))
    lines = text.splitlines()
    assert lines[0].startswith("name")
    assert set(lines[1]) == {"-", " "}
    # numeric column is right-aligned: both rows end at the same column
    assert lines[2].endswith("   1.5")
    assert lines[3].endswith("123.25")
    assert len(lines[2]) == len(lines[3])


# ---------------------------------------------------------------------------
# entry point


def test_main_simulate_success(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, _cfg())
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "results.csv").exists()


def test_main_seed_override_changes_output(tmp_path):
    cfg_path = _write_cfg(tmp_path, _cfg())
    main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "a"), "--seed", "7"])
    main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "b"), "--seed", "8"])
    main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "c"), "--seed", "7"])
    a = (tmp_path / "a" / "results.csv").read_bytes()
    assert a != (tmp_path / "b" / "results.csv").read_bytes()
    assert a == (tmp_path / "c" / "results.csv").read_bytes()
    with pytest.raises(SystemExit):
        main(["simulate", "--config", cfg_path, "--seed", "x"])
    assert main(["simulate", "--config", cfg_path, "--seed", "-1"]) == 2


def test_main_rejects_thread_counts_below_one(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, _cfg())
    for command in ("simulate", "sweep"):
        for threads in ("0", "-3"):
            out = tmp_path / f"{command}{threads}"
            argv = [command, "--config", cfg_path, "--out", str(out), "--threads", threads]
            assert main(argv) == 2
            assert "threads" in capsys.readouterr().err
            assert not out.exists()


def test_main_config_error_exit_code(tmp_path, capsys):
    bad = _write_cfg(tmp_path, '{"channel": {"snr_db": [5], "bogus": 1}}')
    assert main(["simulate", "--config", bad, "--out", str(tmp_path)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert main(["simulate", "--config", str(tmp_path / "missing.json")]) == 2


def test_main_rejects_default_t_target_past_short_schedule(tmp_path, capsys):
    # fixed_step runs the chain from the default t_target of 200
    cfg_path = _write_cfg(tmp_path, _cfg(schedule={"T": 100}, mode={"kind": "fixed_step"}))
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
    assert "configuration error: mode.t_target: must be <= 100, got 200" in capsys.readouterr().err
    assert not out.exists()


def test_adaptive_mode_ignores_default_t_target_past_short_schedule():
    cfg = parse_config(_cfg(schedule={"T": 100}))
    assert cfg.mode.kind == "adaptive" and cfg.mode.t_target == 200


def test_main_runtime_error_exit_code(tmp_path, capsys):
    channel = {"type": "rayleigh", "h": [1.0, 0.0], "sigma": [200.0]}
    cfg_path = _write_cfg(tmp_path, _cfg(channel=channel))
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "runtime error" in err and "cell channel=rayleigh" in err


def test_main_report_prints_table(tmp_path, capsys):
    path = tmp_path / "r.csv"
    emit_csv(RunResult(("a", "b"), (("x", 1.0),)), str(path))
    assert main(["report", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("a")


def test_console_script_is_installed(tmp_path):
    # Installs a copy of this checkout into a throwaway venv and runs the
    # console script setuptools generates from pyproject.toml, so neither the
    # checkout nor a `diffcomm` elsewhere on PATH takes part. The `develop`
    # path writes the script through easy_install, which setuptools 80 removed.
    pytest.importorskip("setuptools.command.easy_install")
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(REPO / name, pkg / name)
    shutil.copytree(REPO / "src", pkg / "src")
    env_dir = tmp_path / "venv"
    venv.create(env_dir, system_site_packages=True, with_pip=False)
    bin_dir = env_dir / "bin"
    # Without PYTHONPATH, diffcomm is importable only through the install.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    build = subprocess.run(
        [str(bin_dir / "python"), "-c", "import setuptools; setuptools.setup()", "develop"],
        cwd=pkg,
        env=env,
        capture_output=True,
        text=True,
    )
    assert build.returncode == 0, build.stdout + build.stderr
    proc = subprocess.run(
        [str(bin_dir / "diffcomm"), "--help"], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "simulate" in proc.stdout and "sweep" in proc.stdout
