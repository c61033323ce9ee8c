"""Variational codec: projections, conditioning, clamps, serialization."""

import copy
import math
import os

import numpy as np
import pytest

from diffcomm import (
    CodecArch,
    ConfigurationError,
    NumericOverflowError,
    compressed_length,
    downsample,
    init_codec,
    k_from_channel_count,
    load_codec,
    save_codec,
    upsample,
)
from diffcomm.codec import (
    backward_batch,
    forward_down_batch,
    forward_up_batch,
    params_to_vector,
    snr_feature,
    vector_to_params,
    zero_grads,
)

SHAPE = (8, 8, 4)  # n = 256


def _params(k=0.5, seed=0, **arch):
    return init_codec(SHAPE, k, CodecArch(**arch), np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# sizing


def test_compressed_length_hand_values():
    assert compressed_length(256, 0.5) == 128
    assert compressed_length(256, 1.0) == 256
    assert compressed_length(10, 0.25) == 2  # round(2.5) banker's-rounds to 2
    with pytest.raises(ConfigurationError):
        compressed_length(256, 0.0)
    with pytest.raises(ConfigurationError):
        compressed_length(256, 1.5)
    with pytest.raises(ConfigurationError):
        compressed_length(256, 0.0001)


def test_channel_count_conversion():
    # rate 0.0013 per channel: C=64, n=256 -> round(21.2992) = 21 symbols
    k = k_from_channel_count(64, 256)
    assert k == 21 / 256
    assert compressed_length(256, k) == 21
    with pytest.raises(ConfigurationError):
        k_from_channel_count(0, 256)
    with pytest.raises(ConfigurationError):
        k_from_channel_count(1, 8)  # rounds to zero symbols


# ---------------------------------------------------------------------------
# initialization


def test_init_is_deterministic_per_seed():
    a = params_to_vector(_params(seed=3))
    b = params_to_vector(_params(seed=3))
    c = params_to_vector(_params(seed=4))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("arch, message", [
    ({"hidden": 0}, "arch.hidden: must be >= 1, got 0"),
    ({"blocks": 0}, "arch.blocks: must be >= 1, got 0"),
    ({"snr_db_range": (12, 0)}, "snr_db_range: must satisfy lo < hi, got (12, 0)"),
], ids=["hidden", "blocks", "snr_db_range"])
def test_codec_arch_rejects_bad_values(arch, message):
    with pytest.raises(ConfigurationError) as info:
        CodecArch(**arch)
    assert str(info.value) == message


@pytest.mark.parametrize("name", ["hidden", "blocks"])
@pytest.mark.parametrize("value, shown", [
    (2.5, "2.5"), (2.0, "2.0"), (True, "True"), ("4", "'4'"),
], ids=["2.5", "2.0", "True", "str"])
def test_codec_arch_rejects_non_integer_widths(name, value, shown):
    with pytest.raises(ConfigurationError) as info:
        CodecArch(**{name: value})
    assert str(info.value) == f"arch.{name}: must be an integer, got {shown}"
    assert info.value.field == f"arch.{name}"


def test_codec_arch_stores_numpy_integer_widths_as_int():
    arch = CodecArch(hidden=np.int64(4), blocks=np.int32(3))
    assert arch == CodecArch(hidden=4, blocks=3)
    assert type(arch.hidden) is int and type(arch.blocks) is int


def test_codec_arch_normalizes_its_switches():
    arch = CodecArch(power_norm=0, snr_conditioning=1, snr_to_mu=np.bool_(True), snr_db_range=[-2, 8])
    assert arch == CodecArch(power_norm=False, snr_conditioning=True, snr_to_mu=True,
                             snr_db_range=(-2.0, 8.0))
    assert [type(v) for v in (arch.power_norm, arch.snr_conditioning, arch.snr_to_mu)] == [bool] * 3
    assert [type(v) for v in arch.snr_db_range] == [float, float]


def test_init_shapes():
    p = _params(k=0.5)
    assert p.n == 256
    assert p.m == 128
    assert p.down_proj.W.shape == (128, 256)
    assert p.up_mu_proj.W.shape == (256, 128)
    assert p.lv_fc1.W.shape == (64, 129)  # m + snr feature column


def test_init_rejects_a_shape_with_an_empty_axis():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigurationError) as info:
        init_codec((0, 2, 2), 0.5, CodecArch(), rng)
    assert (info.type, str(info.value)) == (
        ConfigurationError, "shape: must be three positive integers, got (0, 2, 2)")


def test_full_rate_codec_is_identity_at_init():
    """k=1 without power normalization: the fixed projections are exact
    identities and the residual branches start at zero."""
    p = _params(k=1.0, power_norm=False)
    rng = np.random.default_rng(1)
    y = rng.standard_normal(256)
    z = downsample(y, p)
    assert z.shape == (256,)
    assert np.array_equal(z, y)
    mu, _, _ = upsample(z, 10.0, p, np.random.default_rng(2))
    assert np.array_equal(mu, y)


def test_power_normalization_gives_unit_rms():
    p = _params()
    y = np.random.default_rng(5).standard_normal(256) * 7.0
    assert float(np.mean(downsample(y, p) ** 2)) == pytest.approx(1.0, rel=1e-12)
    # disabled normalization transmits the raw projection output unscaled
    p_raw = _params(power_norm=False)
    _, ctx = forward_down_batch(p_raw, y[None, :])
    assert np.array_equal(downsample(y, p_raw), ctx["z_raw"][0])


def test_downsample_rejects_all_zero_signal():
    p = _params()
    y = np.zeros(256)
    with pytest.raises(ValueError, match="zero"):
        downsample(y, p)


def test_downsample_shape_mismatch():
    p = _params()
    y = np.zeros(128)
    with pytest.raises(ValueError, match=r"^latent shape \(128,\) does not match codec length 256$"):
        downsample(y, p)


# ---------------------------------------------------------------------------
# SNR conditioning


def test_snr_feature_normalization():
    p = _params()  # snr_db_range (0, 12)
    assert snr_feature(p, 10.0 ** (6.0 / 10.0)) == pytest.approx(0.0, abs=1e-12)
    assert snr_feature(p, 1.0) == pytest.approx(-1.0, rel=1e-12)
    assert snr_feature(p, 10.0 ** 1.2) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        snr_feature(p, 0.0)


def test_snr_conditioning_changes_variance_head():
    p = _params()
    z = np.random.default_rng(6).standard_normal(128)
    _, sigma_low, _ = upsample(z, 1.0, p, np.random.default_rng(7))
    _, sigma_high, _ = upsample(z, 15.0, p, np.random.default_rng(7))
    assert not np.array_equal(sigma_low, sigma_high)


def test_snr_ablation_is_invariant():
    p = _params(snr_conditioning=False)
    assert snr_feature(p, 123.0) == 0.0
    z = np.random.default_rng(8).standard_normal(128)
    _, sigma_low, y_low = upsample(z, 1.0, p, np.random.default_rng(9))
    _, sigma_high, y_high = upsample(z, 15.0, p, np.random.default_rng(9))
    assert np.array_equal(sigma_low, sigma_high)
    assert np.array_equal(y_low, y_high)


def test_snr_to_mu_column_is_zero_initialized():
    base = _params(seed=11)
    cond = _params(seed=11, snr_to_mu=True)
    assert cond.up_mu_proj.W.shape == (256, 129)
    z = np.random.default_rng(12).standard_normal(128)
    mu_a, _, _ = upsample(z, 4.0, base, np.random.default_rng(13))
    mu_b, _, _ = upsample(z, 4.0, cond, np.random.default_rng(13))
    assert np.array_equal(mu_a, mu_b)


# ---------------------------------------------------------------------------
# variance head behavior


def test_logvar_clamp_bounds_sigma():
    p = _params()
    huge = np.full(128, 1e8)
    _, sigma, _ = upsample(huge, 4.0, p, np.random.default_rng(14))
    logvar = 2.0 * np.log(sigma)
    assert np.all(logvar <= 10.0 + 1e-9)
    assert np.all(logvar >= -10.0 - 1e-9)
    assert np.max(np.abs(logvar)) == pytest.approx(10.0, rel=1e-12)


def test_upsample_sample_is_mu_plus_sigma_eps():
    p = _params(seed=3)
    z = np.random.default_rng(4).standard_normal(128)
    rng = np.random.default_rng(5)
    eps = copy.deepcopy(rng).standard_normal(p.n)
    mu, sigma, sample = upsample(z, 4.0, p, rng)
    assert mu.shape == sigma.shape == sample.shape == (p.n,)
    assert np.all(sigma > 0.0)
    assert np.array_equal(sample, mu + sigma * eps)
    assert not np.array_equal(sample, mu)


def test_upsample_length_check():
    p = _params()
    with pytest.raises(ValueError, match=r"^received shape \(64,\) does not match codec length 128$"):
        upsample(np.zeros(64), 4.0, p, np.random.default_rng(0))


@pytest.mark.parametrize("z, message", [
    (np.zeros((1, 128)), r"^received shape \(1, 128\) does not match codec length 128$"),
    (np.zeros((128, 1)), r"^received shape \(128, 1\) does not match codec length 128$"),
    (np.full(128, np.nan), "^received vector must be finite$"),
    (np.r_[np.zeros(127), np.inf], "^received vector must be finite$"),
], ids=["row", "column", "nan", "inf"])
def test_upsample_takes_a_finite_m_vector(z, message):
    p = _params()
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        upsample(z, 4.0, p, rng)
    assert rng.bit_generator.state == state


def test_overflow_is_reported_with_layer_name():
    p = _params()
    bad = vector_to_params(p, params_to_vector(p))
    bad.down_blocks[0].fc1.W[0, :] = np.inf
    y = np.ones(256)
    with np.errstate(invalid="ignore"), pytest.raises(
        NumericOverflowError, match="down_block_0"
    ):
        downsample(y, bad)


# ---------------------------------------------------------------------------
# flattening and serialization


def test_vector_round_trip():
    p = _params(seed=20)
    vec = params_to_vector(p)
    q = vector_to_params(p, vec.copy())
    assert np.array_equal(params_to_vector(q), vec)
    with pytest.raises(ValueError):
        vector_to_params(p, vec[:-1])


def _arrays(p):
    return [
        arr
        for lin in [
            *(l for blk in p.down_blocks for l in (blk.fc1, blk.fc2)),
            p.down_proj,
            p.up_mu_proj,
            *(l for blk in p.up_mu_blocks for l in (blk.fc1, blk.fc2)),
            p.lv_fc1,
            p.lv_fc2,
        ]
        for arr in (lin.W, lin.b)
    ]


def test_vector_is_a_copy_and_layers_write_through():
    p = _params(seed=23)
    before = params_to_vector(p)
    vec = params_to_vector(p)
    vec += 1.0
    assert np.array_equal(params_to_vector(p), before)
    # layers are views into one vector laid out in the documented order
    assert np.array_equal(np.concatenate([a.ravel() for a in _arrays(p)]), before)
    p.down_proj.W[0, 0] += 1.0
    assert not np.array_equal(params_to_vector(p), before)


def test_rebuilt_params_do_not_alias_their_source():
    p = _params(seed=24)
    vec = params_to_vector(p)
    q = vector_to_params(p, vec)
    vec[:] = 0.0
    assert np.array_equal(params_to_vector(q), params_to_vector(p))
    assert not any(np.shares_memory(a, vec) for a in _arrays(q))
    for other in (vector_to_params(p, p.flat), zero_grads(p)):
        for mine, theirs in zip(_arrays(other), _arrays(p)):
            assert mine.shape == theirs.shape
            assert not np.shares_memory(mine, theirs)
    assert not np.any(params_to_vector(zero_grads(p)))
    assert np.array_equal(params_to_vector(vector_to_params(p, p.flat)), params_to_vector(p))


def test_backward_into_given_container_writes_every_entry():
    """``out`` is overwritten in place, on the default layout and on the
    golden train-momentum one (three blocks a side, no power norm)."""
    for arch in (CodecArch(), CodecArch(hidden=6, blocks=3, snr_to_mu=True, power_norm=False)):
        p = init_codec(SHAPE, 0.5, arch, np.random.default_rng(25))
        rng = np.random.default_rng(26)
        B = 3
        Z, down_ctx = forward_down_batch(p, rng.standard_normal((B, p.n)))
        Zhat = Z + 0.5 * rng.standard_normal(Z.shape)
        eps_y = rng.standard_normal((B, p.n))
        *_, up_ctx = forward_up_batch(p, Zhat, snr_feature(p, 4.0), eps_y)
        dMu, dLv = rng.standard_normal((2, B, p.n))
        fresh = backward_batch(p, down_ctx, up_ctx, dMu, dLv)
        out = zero_grads(p)
        flat = out.flat
        flat[:] = np.nan
        assert backward_batch(p, down_ctx, up_ctx, dMu, dLv, out=out) is out
        assert out.flat is flat
        assert np.isfinite(flat).all()
        assert np.array_equal(flat, fresh.flat)


def test_save_load_round_trip(tmp_path):
    p = _params(seed=21, snr_to_mu=True, power_norm=False, snr_db_range=(2.0, 9.0))
    path = tmp_path / "codec.npz"
    save_codec(p, path)
    q = load_codec(path)
    assert q.shape == p.shape
    assert q.k == p.k
    assert q.arch == p.arch
    assert np.array_equal(params_to_vector(q), params_to_vector(p))


def test_save_writes_exactly_the_given_path(tmp_path):
    """A name without the ``.npz`` suffix is written as given, and loads back."""
    p = _params(seed=24)
    path = tmp_path / "weights.bin"
    save_codec(p, path)
    assert sorted(os.listdir(tmp_path)) == ["weights.bin"]
    q = load_codec(path)
    assert q.shape == p.shape and q.k == p.k and q.arch == p.arch
    assert np.array_equal(params_to_vector(q), params_to_vector(p))


def test_saved_file_format_is_pinned(tmp_path):
    """Layout version 1: the layout metadata in a fixed order and dtype, then
    every layer's W and b in flat-vector order."""
    arch = CodecArch(hidden=6, blocks=3, power_norm=False, snr_conditioning=False,
                     snr_to_mu=True, snr_db_range=(-2, 8))
    p = init_codec(SHAPE, 0.5, arch, np.random.default_rng(27))
    path = tmp_path / "codec.npz"
    save_codec(p, path)
    meta = [
        ("layout_version", np.int64, 1),
        ("shape", np.int64, [8, 8, 4]),
        ("k", np.float64, 0.5),
        ("hidden", np.int64, 6),
        ("blocks", np.int64, 3),
        ("power_norm", np.bool_, False),
        ("snr_conditioning", np.bool_, False),
        ("snr_to_mu", np.bool_, True),
        ("snr_db_range", np.float64, [-2.0, 8.0]),
    ]
    layers = ([f"down_blocks_{i}_fc{j}" for i in range(3) for j in (1, 2)]
              + ["down_proj", "up_mu_proj"]
              + [f"up_mu_blocks_{i}_fc{j}" for i in range(3) for j in (1, 2)]
              + ["lv_fc1", "lv_fc2"])
    with np.load(path) as data:
        assert data.files == [name for name, _, _ in meta] + [f"{layer}_{x}" for layer in layers for x in "Wb"]
        for name, dtype, value in meta:
            assert data[name].dtype == dtype and data[name].tolist() == value, name
        stored = np.concatenate([data[name].ravel() for name in data.files[len(meta):]])
    assert np.array_equal(stored, p.flat)
    loaded = load_codec(path).arch
    assert loaded == arch
    assert [type(getattr(loaded, name)) for name in ("hidden", "blocks")] == [int, int]
    assert [type(getattr(loaded, name)) for name in ("power_norm", "snr_conditioning", "snr_to_mu")] == [bool] * 3
    assert [type(v) for v in loaded.snr_db_range] == [float, float]


def test_load_rejects_unknown_layout(tmp_path):
    p = _params(seed=22)
    path = tmp_path / "codec.npz"
    save_codec(p, path)
    with np.load(path) as data:
        contents = {name: data[name] for name in data.files}
    contents["layout_version"] = np.int64(99)
    np.savez(path, **contents)
    with pytest.raises(ValueError, match="layout"):
        load_codec(path)


def test_load_rejects_wrong_shaped_array_by_name(tmp_path):
    p = _params(seed=23, snr_to_mu=True)
    path = tmp_path / "codec.npz"
    save_codec(p, path)
    with np.load(path) as data:
        contents = {name: data[name] for name in data.files}
    # one column short: a file written without the snr_to_mu input column
    contents["up_mu_proj_W"] = contents["up_mu_proj_W"][:, :-1]
    np.savez(path, **contents)
    with pytest.raises(ValueError, match=r"array up_mu_proj_W has shape \(\d+, \d+\), expected"):
        load_codec(path)
