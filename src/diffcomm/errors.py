"""Exception types shared across the package.

Most errors are ValueError subclasses so callers that only care about
"bad input" can catch the base class, while tests and the CLI can
distinguish the specific failure.
"""


class ConfigurationError(ValueError):
    """Invalid configuration value. The message names the offending field."""

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}")


class SaturationError(ValueError):
    """Channel noise exceeds the largest variance the schedule can represent."""

    def __init__(self, sigma2: float, max_sigma2: float):
        self.sigma2 = sigma2
        self.max_sigma2 = max_sigma2
        super().__init__(
            f"noise variance {sigma2:g} exceeds the maximum representable "
            f"variance {max_sigma2:g} at the final step of the schedule"
        )


class CompensationInfeasibleError(ValueError):
    """Channel noise already exceeds the noise level of the target step."""

    def __init__(self, sigma2: float, step_sigma2: float, t_target: int):
        self.sigma2 = sigma2
        self.step_sigma2 = step_sigma2
        self.t_target = t_target
        super().__init__(
            f"cannot compensate to step {t_target}: channel variance {sigma2:g} "
            f"exceeds the step-equivalent variance {step_sigma2:g}"
        )


class DeepFadeError(ValueError):
    """Fading gain is zero; the channel carries no signal."""


class DegenerateChannelError(ValueError):
    """Equalizer is undefined because both the gain and the noise are zero."""


class InfiniteSnrError(ValueError):
    """SNR is unbounded because the noise variance is zero."""


class RankDeficientChannelError(ValueError):
    """One or more MIMO subchannels have zero gain."""

    def __init__(self, dead_streams: list[int]):
        self.dead_streams = dead_streams
        super().__init__(
            f"rank-deficient channel: subchannel(s) {dead_streams} have zero gain"
        )


class NumericOverflowError(FloatingPointError):
    """A network layer produced a non-finite output. Names the layer."""

    def __init__(self, layer: str):
        self.layer = layer
        super().__init__(f"non-finite output in layer '{layer}'")


class TrainingDivergedError(RuntimeError):
    """Training loss became non-finite. Carries the last finite step."""

    def __init__(self, step: int, last_finite_step: int):
        self.step = step
        self.last_finite_step = last_finite_step
        super().__init__(
            f"training aborted at step {step}: loss is not finite "
            f"(last finite step: {last_finite_step})"
        )
