"""Diffusion-based semantic communication over noisy channels.

The library treats channel noise as partial progress through a
forward diffusion process: the receiver maps the measured noise level
to a diffusion step and runs the reverse process from there, instead of
training separate models per condition.  A variational codec compresses
latents for bandlimited links, trained with a hybrid KL / reconstruction
objective.  Everything is numpy; there is no framework dependency.
"""

from .channels import (
    ChannelOutput,
    MimoChannel,
    awgn_transmit,
    mimo_svd_decompose,
    mimo_transmit,
    rayleigh_transmit_mmse,
)
from .codec import (
    CodecArch,
    CodecParams,
    GaussianParams,
    compressed_length,
    downsample,
    init_codec,
    k_from_channel_count,
    load_codec,
    save_codec,
    upsample,
)
from .diffusion import (
    AnalyticGaussianDenoiser,
    Denoiser,
    GaussianSourceModel,
    Latent,
    adaptive_receive,
    compensate_to_step,
    denoise_from_step,
    forward_sample,
    reverse_step,
)
from .errors import (
    CompensationInfeasibleError,
    ConfigurationError,
    DeepFadeError,
    NumericOverflowError,
    RankDeficientChannelError,
    SaturationError,
    TrainingDivergedError,
)
from .loss import (
    LossBreakdown,
    LossWeights,
    TrainConfig,
    TrainRecord,
    guidance_kl,
    hybrid_loss_batch,
    prior_kl,
    reconstruction_psnr,
    train_codec,
)
from .metrics import (
    GaussianityReport,
    gaussianity_check,
    mse,
    psnr,
    psnr_from_mse,
    ssim,
    ssim_batch,
)
from .schedule import (
    Schedule,
    StepMapping,
    build_linear_schedule,
    compensation_variance,
    sigma2_to_step,
    step_to_sigma2,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticGaussianDenoiser",
    "ChannelOutput",
    "CodecArch",
    "CodecParams",
    "CompensationInfeasibleError",
    "ConfigurationError",
    "DeepFadeError",
    "Denoiser",
    "GaussianParams",
    "GaussianSourceModel",
    "GaussianityReport",
    "Latent",
    "LossBreakdown",
    "LossWeights",
    "MimoChannel",
    "NumericOverflowError",
    "RankDeficientChannelError",
    "SaturationError",
    "Schedule",
    "StepMapping",
    "TrainConfig",
    "TrainRecord",
    "TrainingDivergedError",
    "adaptive_receive",
    "awgn_transmit",
    "build_linear_schedule",
    "compensate_to_step",
    "compensation_variance",
    "compressed_length",
    "denoise_from_step",
    "downsample",
    "forward_sample",
    "gaussianity_check",
    "guidance_kl",
    "hybrid_loss_batch",
    "init_codec",
    "k_from_channel_count",
    "load_codec",
    "mimo_svd_decompose",
    "mimo_transmit",
    "mse",
    "prior_kl",
    "psnr",
    "psnr_from_mse",
    "reconstruction_psnr",
    "rayleigh_transmit_mmse",
    "reverse_step",
    "save_codec",
    "sigma2_to_step",
    "ssim",
    "ssim_batch",
    "step_to_sigma2",
    "train_codec",
    "upsample",
]
