"""Compression codec for latents: a downsampler to a shorter transmit vector
and an SNR-conditioned upsampler that outputs a Gaussian over the
reconstruction, sampled via the reparameterization trick.

The maps are small fully connected networks built from residual
bottleneck blocks (linear, leaky rectifier, linear, plus skip).  The
closing layer of every residual branch starts at zero, so an untrained
codec is a fixed linear projection: block-mean pooling on the way down,
nearest-neighbor repetition on the way up.  With ``k = 1`` both
projections are the identity.

All trainable state lives in one float64 vector, ``CodecParams.flat``,
laid out layer by layer in :func:`_layers` order (down blocks, down
projection, up projection, up blocks, variance head; ``W`` before ``b``
in each layer).  Every layer's ``W`` and ``b`` is a reshaped view
into that vector, so the trainer updates ``flat`` in place and the
gradients of :func:`backward_batch` share the same layout.

The forward pass is written so that an exact reverse-mode backward pass
(`backward_batch`) can mirror it layer by layer; the training loop and
loss live in :mod:`diffcomm.loss`.  No autodiff framework is involved,
which is why the gradient check against finite differences in the test
suite is load-bearing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .diffusion import _checked
from .errors import ConfigurationError, NumericOverflowError

__all__ = [
    "CodecArch",
    "LinearParams",
    "ResidualBlock",
    "CodecParams",
    "compressed_length",
    "k_from_channel_count",
    "init_codec",
    "downsample",
    "upsample",
    "snr_feature",
    "save_codec",
    "load_codec",
    "params_to_vector",
    "vector_to_params",
]

LRELU_SLOPE = 0.01
LOGVAR_MIN = -10.0
LOGVAR_MAX = 10.0
LAYOUT_VERSION = 1
# compression rate per configured channel count; see k_from_channel_count
RATE_PER_CHANNEL = 0.0013


@dataclass(frozen=True)
class CodecArch:
    """Residual block widths and the switches that shape the forward pass
    (see :func:`snr_feature` for ``snr_db_range``)."""

    hidden: int = 64
    blocks: int = 2
    power_norm: bool = True
    snr_conditioning: bool = True
    snr_to_mu: bool = False
    snr_db_range: tuple[float, float] = (0.0, 12.0)

    def __post_init__(self):
        for name in ("hidden", "blocks"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigurationError(f"arch.{name}", f"must be an integer, got {value!r}")
            if value < 1:
                raise ConfigurationError(f"arch.{name}", f"must be >= 1, got {value}")
            object.__setattr__(self, name, int(value))
        lo, hi = (float(v) for v in self.snr_db_range)
        if not lo < hi:
            raise ConfigurationError("snr_db_range", f"must satisfy lo < hi, got {self.snr_db_range}")
        for name in ("power_norm", "snr_conditioning", "snr_to_mu"):
            object.__setattr__(self, name, bool(getattr(self, name)))
        object.__setattr__(self, "snr_db_range", (lo, hi))


@dataclass
class LinearParams:
    W: np.ndarray  # (out, in)
    b: np.ndarray  # (out,)


@dataclass
class ResidualBlock:
    fc1: LinearParams  # opens the bottleneck
    fc2: LinearParams  # closes it; zero at initialization


@dataclass
class CodecParams:
    """All trainable state of a codec of layout ``(shape, k, arch)``; every
    ``W`` and ``b`` is a view into ``flat`` (see the module docstring)."""

    shape: tuple[int, int, int]
    k: float
    arch: CodecArch
    down_blocks: list[ResidualBlock]
    down_proj: LinearParams
    up_mu_proj: LinearParams
    up_mu_blocks: list[ResidualBlock]
    lv_fc1: LinearParams
    lv_fc2: LinearParams
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        w, h, c = self.shape
        return w * h * c

    @property
    def m(self) -> int:
        return self.down_proj.W.shape[0]


def compressed_length(n: int, k: float) -> int:
    """Transmit vector length for compression ratio ``k``: round(k * n), >= 1."""
    if not 0.0 < k <= 1.0:
        raise ConfigurationError("k", f"must lie in (0, 1], got {k!r}")
    m = int(round(k * n))
    if m < 1:
        raise ConfigurationError("k", f"ratio {k!r} rounds to an empty vector for n={n}")
    return m


def k_from_channel_count(C: int, n: int) -> float:
    """Compression ratio for a configured channel count ``C``.

    The convention is a rate of ``0.0013 * C``; the transmit length is
    rounded to the nearest integer for the given latent size and the
    ratio reported back as ``m / n`` so configs can state either form.
    """
    if C < 1:
        raise ConfigurationError("C", f"must be >= 1, got {C}")
    m = int(round(RATE_PER_CHANNEL * C * n))
    if m < 1:
        raise ConfigurationError("C", f"channel count {C} rounds to an empty vector for n={n}")
    if m > n:
        raise ConfigurationError("C", f"channel count {C} exceeds the uncompressed length for n={n}")
    return m / n


def _block_mean_matrix(m: int, n: int) -> np.ndarray:
    """Fixed projection averaging contiguous input blocks; identity when m == n."""
    P = np.zeros((m, n))
    for i in range(m):
        lo = (i * n) // m
        hi = ((i + 1) * n) // m
        P[i, lo:hi] = 1.0 / (hi - lo)
    return P


def _repeat_matrix(n: int, m: int) -> np.ndarray:
    """Fixed upsampling by nearest input element; identity when n == m."""
    Q = np.zeros((n, m))
    for j in range(n):
        Q[j, (j * m) // n] = 1.0
    return Q


def _layout(
    shape: tuple[int, int, int], k: float, arch: CodecArch, flat: Optional[np.ndarray] = None
) -> CodecParams:
    """A validated codec of the given layout with every ``W`` and ``b`` a
    view into ``flat`` (a fresh zero vector when None), laid out in
    :func:`_layers` order."""
    shape = tuple(int(v) for v in shape)
    if len(shape) != 3 or any(v < 1 for v in shape):
        raise ConfigurationError("shape", f"must be three positive integers, got {shape}")
    w, h, c = shape
    n = w * h * c
    m = compressed_length(n, k)

    def lin(out: int, inp: int) -> LinearParams:
        return LinearParams(W=np.empty((out, inp)), b=np.empty(out))

    def blocks() -> list[ResidualBlock]:
        return [ResidualBlock(fc1=lin(arch.hidden, n), fc2=lin(n, arch.hidden))
                for _ in range(arch.blocks)]

    params = CodecParams(
        shape=shape,
        k=float(k),
        arch=arch,
        down_blocks=blocks(),
        down_proj=lin(m, n),
        up_mu_proj=lin(n, m + 1 if arch.snr_to_mu else m),
        up_mu_blocks=blocks(),
        lv_fc1=lin(arch.hidden, m + 1),
        lv_fc2=lin(n, arch.hidden),
    )
    count = sum(arr.size for _, arr in _param_arrays(params))
    if flat is None:
        flat = np.zeros(count)
    elif flat.size != count:
        raise ValueError(f"vector length {flat.size} does not match parameter count {count}")
    offset = 0
    for _, layer in _layers(params):
        for f in fields(LinearParams):
            arr = getattr(layer, f.name)
            setattr(layer, f.name, flat[offset : offset + arr.size].reshape(arr.shape))
            offset += arr.size
    params.flat = flat
    return params


def init_codec(
    shape: tuple[int, int, int], k: float, arch: CodecArch, rng: np.random.Generator
) -> CodecParams:
    """Freshly initialized codec; identical seeds give identical parameters.

    Residual branches start at exactly zero, so the initial maps are the
    fixed projections described in the module docstring.  The variance
    head is small-random throughout so SNR conditioning is live from the
    start.
    """
    params = _layout(shape, k, arch)
    n, m = params.n, params.m
    # draw order: down blocks, up blocks, then the variance head
    for block in params.down_blocks + params.up_mu_blocks:
        block.fc1.W[...] = 0.05 * rng.standard_normal(block.fc1.W.shape)
    params.lv_fc1.W[...] = 0.05 * rng.standard_normal(params.lv_fc1.W.shape)
    params.lv_fc2.W[...] = 0.05 * rng.standard_normal(params.lv_fc2.W.shape)
    params.down_proj.W[...] = _block_mean_matrix(m, n)
    params.up_mu_proj.W[:, :m] = _repeat_matrix(n, m)
    return params


def snr_feature(params: CodecParams, snr: float) -> float:
    """Normalized SNR input to the network.

    Linear SNR is converted to dB and mapped affinely so the configured
    ``snr_db_range`` covers roughly [-1, 1].  Returns 0 when conditioning
    is ablated, making the network invariant to the SNR argument.
    """
    if not params.arch.snr_conditioning:
        return 0.0
    snr = float(snr)
    if not (math.isfinite(snr) and snr > 0.0):
        raise ValueError(f"snr must be finite and > 0, got {snr!r}")
    lo, hi = params.arch.snr_db_range
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return (10.0 * math.log10(snr) - mid) / half


# ---------------------------------------------------------------------------
# batched forward/backward
#
# All arrays carry a leading batch axis.  Forward passes return a context
# holding every intermediate the mirrored backward pass needs.


def _lrelu(a: np.ndarray) -> np.ndarray:
    return np.where(a > 0.0, a, LRELU_SLOPE * a)


def _lrelu_grad(a: np.ndarray) -> np.ndarray:
    return np.where(a > 0.0, 1.0, LRELU_SLOPE)


def _block_forward(block: ResidualBlock, x: np.ndarray) -> tuple[np.ndarray, dict]:
    a = x @ block.fc1.W.T + block.fc1.b
    hmid = _lrelu(a)
    out = x + hmid @ block.fc2.W.T + block.fc2.b
    return out, {"x": x, "a": a, "h": hmid}


def forward_down_batch(params: CodecParams, Y: np.ndarray) -> tuple[np.ndarray, dict]:
    """Compress a (batch, n) array; returns (batch, m) and the backward context."""
    x = Y
    blocks_ctx = []
    for block in params.down_blocks:
        x, ctx = _block_forward(block, x)
        blocks_ctx.append(ctx)
    z_raw = x @ params.down_proj.W.T + params.down_proj.b
    ctx = {"blocks": blocks_ctx, "x_proj_in": x, "z_raw": z_raw}
    Z = z_raw
    if params.arch.power_norm:
        c = np.sqrt(np.mean(z_raw * z_raw, axis=1))
        if np.any(c == 0.0):
            raise ValueError("cannot power-normalize an all-zero transmit vector")
        Z = z_raw / c[:, None]
        ctx["c"] = c
    return Z, ctx


def forward_up_batch(
    params: CodecParams, Zhat: np.ndarray, feat: float, eps_y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, dict]:
    """Decode a (batch, m) array.

    Returns ``(Mu, Lv, Sy, Yhat, ctx)`` where ``Yhat = Mu + Sy * eps_y``
    and ``Lv`` is the clamped log variance.
    """
    B = Zhat.shape[0]
    feat_col = np.full((B, 1), feat)

    mu_in = np.concatenate([Zhat, feat_col], axis=1) if params.arch.snr_to_mu else Zhat
    x = mu_in @ params.up_mu_proj.W.T + params.up_mu_proj.b
    mu_blocks_ctx = []
    for block in params.up_mu_blocks:
        x, bctx = _block_forward(block, x)
        mu_blocks_ctx.append(bctx)
    Mu = x

    lv_in = np.concatenate([Zhat, feat_col], axis=1)
    a2 = lv_in @ params.lv_fc1.W.T + params.lv_fc1.b
    h2 = _lrelu(a2)
    lv_raw = h2 @ params.lv_fc2.W.T + params.lv_fc2.b
    Lv = np.clip(lv_raw, LOGVAR_MIN, LOGVAR_MAX)
    Sy = np.exp(0.5 * Lv)
    Yhat = Mu + Sy * eps_y

    ctx = {
        "mu_in": mu_in,
        "mu_blocks": mu_blocks_ctx,
        "lv_in": lv_in,
        "a2": a2,
        "h2": h2,
        "clamp_mask": (lv_raw > LOGVAR_MIN) & (lv_raw < LOGVAR_MAX),
    }
    return Mu, Lv, Sy, Yhat, ctx


def zero_grads(params: CodecParams) -> CodecParams:
    """Parameter-shaped container of zeros over a fresh vector."""
    return _layout(params.shape, params.k, params.arch)


def _linear_backward(
    layer: LinearParams, x: np.ndarray, d: np.ndarray, grads: LinearParams
) -> np.ndarray:
    """The one linear-layer rule: with input ``x`` and output gradient ``d``, write
    ``d.T @ x`` and the batch sum of ``d`` into ``grads``; return ``d @ layer.W``."""
    np.matmul(d.T, x, out=grads.W)
    np.sum(d, axis=0, out=grads.b)
    return d @ layer.W


def _blocks_backward(
    blocks: list[ResidualBlock], ctxs: list[dict], grads: list[ResidualBlock], dout: np.ndarray
) -> np.ndarray:
    """Input gradient of a stack of residual blocks, run last to first."""
    for block, ctx, g in zip(reversed(blocks), reversed(ctxs), reversed(grads)):
        da = _linear_backward(block.fc2, ctx["h"], dout, g.fc2) * _lrelu_grad(ctx["a"])
        dout = dout + _linear_backward(block.fc1, ctx["x"], da, g.fc1)
    return dout


def backward_batch(
    params: CodecParams,
    down_ctx: dict,
    up_ctx: dict,
    dMu: np.ndarray,
    dLv: np.ndarray,
    *,
    out: Optional[CodecParams] = None,
) -> CodecParams:
    """Exact reverse-mode gradients of a scalar loss through the whole codec.

    ``dMu`` and ``dLv`` are the loss gradients at the decoder outputs
    (after the caller has folded in the reparameterization chain).  The
    channel noise between encoder and decoder is additive, so the decoder
    input gradient passes straight through to the encoder output.  Each
    layer's gradient is one :func:`_linear_backward` call, and the
    returned parameter-shaped gradients line up with ``params.flat``.

    ``out`` (from :func:`zero_grads` on the same layout) receives the
    gradients instead of a fresh container and is returned; every layer's
    gradient is written straight into its view of ``out.flat``, so every
    entry is overwritten and its previous contents do not matter.
    """
    g = zero_grads(params) if out is None else out
    m = params.m

    # variance head
    dlv_raw = dLv * up_ctx["clamp_mask"]
    da2 = _linear_backward(params.lv_fc2, up_ctx["h2"], dlv_raw, g.lv_fc2) * _lrelu_grad(up_ctx["a2"])
    dZhat = _linear_backward(params.lv_fc1, up_ctx["lv_in"], da2, g.lv_fc1)[:, :m]

    # mean head
    dx = _blocks_backward(params.up_mu_blocks, up_ctx["mu_blocks"], g.up_mu_blocks, dMu)
    dZhat = dZhat + _linear_backward(params.up_mu_proj, up_ctx["mu_in"], dx, g.up_mu_proj)[:, :m]

    # through the additive channel noise into the encoder
    dz_raw = dZhat
    if params.arch.power_norm:
        z_raw = down_ctx["z_raw"]
        c = down_ctx["c"][:, None]
        inner = np.sum(dZhat * z_raw, axis=1, keepdims=True)
        dz_raw = dZhat / c - z_raw * inner / (z_raw.shape[1] * c**3)
    dx = _linear_backward(params.down_proj, down_ctx["x_proj_in"], dz_raw, g.down_proj)
    _blocks_backward(params.down_blocks, down_ctx["blocks"], g.down_blocks, dx)
    return g


# ---------------------------------------------------------------------------
# public single-latent operations


def _check_finite(name: str, arr: np.ndarray):
    if not np.all(np.isfinite(arr)):
        raise NumericOverflowError(name)


def downsample(y: np.ndarray, params: CodecParams) -> np.ndarray:
    """Compress one ``(n,)`` latent to the ``(m,)`` transmit vector.

    The latent gets the diffusion layer's check, then must have the
    codec's length.  With power normalization the raw projection output
    is divided by its root mean square, giving unit mean per-symbol
    power; the divisor is assumed known at the receiver.
    """
    if _checked(y).size != params.n:
        raise ValueError(f"latent shape {y.shape} does not match codec length {params.n}")
    Z, ctx = forward_down_batch(params, y[None, :])
    # each block's output is the next block's input, the last one the projection's
    outputs = [bctx["x"] for bctx in ctx["blocks"][1:]] + [ctx["x_proj_in"]]
    for i, x in enumerate(outputs):
        _check_finite(f"down_block_{i}", x)
    _check_finite("down_proj", ctx["z_raw"])
    return Z[0]


def upsample(
    z_hat: np.ndarray, snr: float, params: CodecParams, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode a received ``(m,)`` vector into a Gaussian and a reparameterized draw.

    Returns ``(mu, sigma, sample)``, three ``(n,)`` arrays: the elementwise
    Gaussian's mean and scale (``exp`` of half the clamped log variance, so
    positive) and the sample ``mu + sigma * eps`` with ``eps`` drawn from
    ``rng``.  ``snr`` is the linear channel SNR used for conditioning.
    """
    z_hat = np.asarray(z_hat, dtype=np.float64)
    if z_hat.shape != (params.m,):
        raise ValueError(f"received shape {z_hat.shape} does not match codec length {params.m}")
    if not np.all(np.isfinite(z_hat)):
        raise ValueError("received vector must be finite")
    feat = snr_feature(params, snr)
    eps_y = rng.standard_normal(params.n)
    Mu, Lv, Sy, Yhat, _ = forward_up_batch(params, z_hat[None, :], feat, eps_y[None, :])
    _check_finite("up_mu", Mu)
    _check_finite("up_logvar", Lv)
    return Mu[0], Sy[0], Yhat[0]


# ---------------------------------------------------------------------------
# the flat parameter vector and serialization


def _layers(params: CodecParams) -> list[tuple[str, LinearParams]]:
    """Every layer with its name, in the order the flat vector lays them out."""
    out = []
    for i, b in enumerate(params.down_blocks):
        out += [(f"down_blocks_{i}_fc1", b.fc1), (f"down_blocks_{i}_fc2", b.fc2)]
    out += [("down_proj", params.down_proj), ("up_mu_proj", params.up_mu_proj)]
    for i, b in enumerate(params.up_mu_blocks):
        out += [(f"up_mu_blocks_{i}_fc1", b.fc1), (f"up_mu_blocks_{i}_fc2", b.fc2)]
    out += [("lv_fc1", params.lv_fc1), ("lv_fc2", params.lv_fc2)]
    return out


def _param_arrays(params: CodecParams) -> list[tuple[str, np.ndarray]]:
    """Every ``W`` and ``b`` with its name, in flat-vector order."""
    return [(f"{name}_{f.name}", getattr(layer, f.name))
            for name, layer in _layers(params) for f in fields(LinearParams)]


def params_to_vector(params: CodecParams) -> np.ndarray:
    """Copy of all trainable values in the fixed documented order."""
    return params.flat.copy()


def vector_to_params(template: CodecParams, vec: np.ndarray) -> CodecParams:
    """Parameters over a copy of a flat vector (inverse of params_to_vector)."""
    return _layout(template.shape, template.k, template.arch, np.array(vec, dtype=np.float64))


# saved dtype of a CodecArch field, by the type of its default
_META_DTYPES = {bool: np.bool_, int: np.int64, tuple: np.float64}


def save_codec(params: CodecParams, path) -> None:
    """Serialize the layout (every ``CodecArch`` field under its own name)
    and the parameters as named arrays with a layout version, to exactly
    ``path``: ``np.savez`` given a name would append ``.npz`` to it."""
    meta = {
        "layout_version": np.int64(LAYOUT_VERSION),
        "shape": np.asarray(params.shape, dtype=np.int64),
        "k": np.float64(params.k),
    }
    for f in fields(CodecArch):
        meta[f.name] = np.asarray(getattr(params.arch, f.name), dtype=_META_DTYPES[type(f.default)])
    arrays = {name: arr for name, arr in _param_arrays(params)}
    with open(path, "wb") as handle:
        np.savez(handle, **meta, **arrays)


def load_codec(path) -> CodecParams:
    """Reconstruct parameters written by :func:`save_codec`; every stored
    array must have the shape its layer expects.  A file that is not such
    an archive is a ValueError (or an error of ``np.load`` reading it)."""
    data = np.load(path)
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ValueError("not an .npz archive")

    def read(name: str) -> np.ndarray:
        if name not in data.files:
            raise ValueError(f"not a saved codec: no {name!r} array")
        return data[name]

    with data:
        version = int(read("layout_version"))
        if version != LAYOUT_VERSION:
            raise ValueError(f"unsupported codec layout version {version}")
        params = _layout(
            shape=tuple(int(v) for v in read("shape")),
            k=float(read("k")),
            arch=CodecArch(**{f.name: read(f.name).tolist() for f in fields(CodecArch)}),
        )
        for name, arr in _param_arrays(params):
            stored = read(name)
            if stored.shape != arr.shape:
                raise ValueError(f"array {name} has shape {stored.shape}, expected {arr.shape}")
            arr[...] = stored
    return params
