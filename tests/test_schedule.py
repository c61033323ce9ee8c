"""Schedule construction, step mapping, and compensation arithmetic.

The alpha-bar reference values are frozen from exact rational
arithmetic: betas come from np.linspace, each converted exactly to a
Fraction, multiplied without rounding, and the final product rounded
once to the nearest float.  A live recomputation guards the constants.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from diffcomm import (
    CompensationInfeasibleError,
    ConfigurationError,
    SaturationError,
    Schedule,
    StepMapping,
    build_linear_schedule,
    compensation_variance,
    sigma2_to_step,
    step_to_sigma2,
)

# exact-product references for the default schedule (T=1000, 1e-4..0.02)
ALPHA_BAR_EXACT = {
    4: 0.9994805806926659,
    200: 0.6590385082317941,
    500: 0.07858724288177825,
    1000: 4.035829765375685e-05,
}


def exact_alpha_bar(u: int, T: int = 1000, beta_start: float = 1e-4, beta_end: float = 0.02) -> float:
    betas = np.linspace(beta_start, beta_end, T)
    prod = Fraction(1)
    for b in betas[:u]:
        prod *= 1 - Fraction(float(b))
    return float(prod)


def test_frozen_references_match_live_exact_product():
    for u, expected in ALPHA_BAR_EXACT.items():
        assert exact_alpha_bar(u) == expected


def test_default_schedule_matches_exact_product():
    sch = build_linear_schedule()
    assert sch.T == 1000
    assert sch.betas[0] == 1e-4
    assert sch.betas[-1] == 0.02
    for u, expected in ALPHA_BAR_EXACT.items():
        assert sch.alpha_bar(u) == pytest.approx(expected, rel=5e-15)


def test_constant_beta_hand_value():
    # beta = 0.1 for four steps: alpha_bar_4 = 0.9^4 = 0.6561
    sch = build_linear_schedule(T=4, beta_start=0.1, beta_end=0.1)
    assert sch.alpha_bar(4) == pytest.approx(0.6561, rel=1e-14)
    assert sch.alpha_bar(1) == pytest.approx(0.9, rel=1e-15)


def test_alpha_bar_strictly_decreasing_and_bounded():
    sch = build_linear_schedule()
    assert sch.alpha_bar(0) == 1.0
    bars = sch.alpha_bars
    assert np.all(bars > 0.0)
    assert np.all(bars < 1.0)
    assert np.all(np.diff(bars) < 0.0)


def test_accessors_validate_step_index():
    sch = build_linear_schedule(T=10, beta_start=0.01, beta_end=0.02)
    assert sch.betas[0] == 0.01
    assert sch.alphas[9] == 1.0 - 0.02
    with pytest.raises(IndexError):
        sch.alpha_bar(-1)
    with pytest.raises(IndexError):
        sch.alpha_bar(11)
    with pytest.raises(TypeError):
        sch.alpha_bar(1.5)


def test_builder_rejects_bad_parameters():
    with pytest.raises(ConfigurationError, match="T"):
        build_linear_schedule(T=0)
    # a bool is an int to isinstance, and True would build a 1-step schedule
    with pytest.raises(ConfigurationError, match=r"^T: must be an integer >= 1, got True$"):
        build_linear_schedule(True)
    with pytest.raises(ConfigurationError, match="beta_start"):
        build_linear_schedule(beta_start=0.0)
    with pytest.raises(ConfigurationError, match="beta_end"):
        build_linear_schedule(beta_end=1.0)
    # 0 fails beta_end's own bound, not the order check that names beta_start
    with pytest.raises(ConfigurationError, match=r"^beta_end: must lie in \(0, 1\), got 0\.0$"):
        build_linear_schedule(beta_end=0.0)
    with pytest.raises(ConfigurationError, match="beta_start"):
        build_linear_schedule(beta_start=0.5, beta_end=0.1)


def test_schedule_arrays_are_frozen():
    sch = build_linear_schedule(T=5, beta_start=0.01, beta_end=0.02)
    with pytest.raises(ValueError):
        sch.betas[0] = 0.5
    with pytest.raises(ValueError):
        sch.alpha_bars[0] = 0.5


# ---------------------------------------------------------------------------
# channel variance <-> step


def test_step_to_sigma2_zero_and_formula():
    sch = build_linear_schedule()
    assert step_to_sigma2(sch, 0) == 0.0
    ab = sch.alpha_bar(259)
    assert step_to_sigma2(sch, 259) == (1.0 - ab) / ab


def test_round_trip_every_step_is_exact():
    """sigma2(u) -> step must return u with residual exactly 0, even when
    the float reciprocal 1/(1+sigma2) does not reproduce alpha_bar(u)."""
    sch = build_linear_schedule()
    for u in range(0, sch.T + 1):
        mapping = sigma2_to_step(sch, step_to_sigma2(sch, u))
        assert mapping.step_u == u
        assert mapping.residual == 0.0
        assert mapping.alpha_bar_u == sch.alpha_bar(u)
        assert mapping.scale == math.sqrt(sch.alpha_bar(u))


def test_mapping_picks_nearest_step():
    sch = build_linear_schedule()
    rng = np.random.default_rng(42)
    bars = np.concatenate(([1.0], sch.alpha_bars))
    for sigma2 in rng.uniform(0.001, 50.0, size=200):
        u = sigma2_to_step(sch, sigma2).step_u
        target = 1.0 / (1.0 + sigma2)
        d = abs(bars[u] - target)
        if u > 0:
            assert d <= abs(bars[u - 1] - target)
        if u < sch.T:
            assert d <= abs(bars[u + 1] - target)


def test_exact_midpoint_ties_break_to_smaller_step():
    sch = build_linear_schedule()
    bars = np.concatenate(([1.0], sch.alpha_bars))
    found = 0
    for u in range(1, 600):
        a, b = bars[u], bars[u + 1]
        mid = (a + b) / 2.0
        sigma2 = (1.0 - mid) / mid
        target = 1.0 / (1.0 + sigma2)
        # only genuine float ties exercise the rule
        if target == mid and abs(a - target) == abs(b - target):
            assert sigma2_to_step(sch, sigma2).step_u == u
            found += 1
    assert found > 0


def test_sigma2_zero_maps_to_step_zero():
    sch = build_linear_schedule()
    mapping = sigma2_to_step(sch, 0.0)
    assert mapping.step_u == 0
    assert mapping.alpha_bar_u == 1.0
    assert mapping.scale == 1.0
    assert mapping.residual == 0.0


def test_saturation_and_invalid_sigma2():
    sch = build_linear_schedule()
    limit = sch.max_sigma2
    assert sigma2_to_step(sch, limit).step_u == sch.T
    with pytest.raises(SaturationError):
        sigma2_to_step(sch, limit * (1.0 + 1e-9))
    with pytest.raises(ValueError):
        sigma2_to_step(sch, -1.0)
    with pytest.raises(ValueError):
        sigma2_to_step(sch, float("nan"))


def test_step_mapping_rejects_inconsistent_scale():
    """The scale is derived, so an inconsistent one cannot be passed in."""
    mapping = StepMapping(step_u=3, alpha_bar_u=0.25, residual=0.0)
    assert mapping.scale == 0.5
    with pytest.raises(TypeError):
        StepMapping(step_u=3, alpha_bar_u=0.25, scale=0.7, residual=0.0)
    with pytest.raises(ValueError):
        StepMapping(step_u=3, alpha_bar_u=0.0, residual=0.0)


@pytest.mark.parametrize("field, value, message", [
    ("step_u", -1, "step_u must be >= 0, got -1"),
    ("residual", -0.5, "residual must be >= 0, got -0.5"),
    ("residual", math.nan, "residual must be >= 0, got nan"),
], ids=["negative-step", "negative-residual", "nan-residual"])
def test_step_mapping_rejects_a_negative_step_or_residual(field, value, message):
    with pytest.raises(ValueError) as info:
        StepMapping(**{"step_u": 3, "alpha_bar_u": 0.25, "residual": 0.0, field: value})
    assert (info.type, str(info.value)) == (ValueError, message)


# ---------------------------------------------------------------------------
# compensation


def test_compensation_variance_boundary_is_exactly_zero():
    sch = build_linear_schedule()
    t = 259
    sigma2 = step_to_sigma2(sch, t)
    assert compensation_variance(sch, t, sigma2) == 0.0


def test_compensation_variance_positive_and_consistent():
    sch = build_linear_schedule()
    sigma2 = 0.25
    extra = compensation_variance(sch, 200, sigma2)
    assert extra > 0.0
    assert extra == pytest.approx(step_to_sigma2(sch, 200) - sigma2, rel=1e-12)


def test_compensation_infeasible_raises():
    sch = build_linear_schedule()
    step_var = step_to_sigma2(sch, 200)
    with pytest.raises(CompensationInfeasibleError):
        compensation_variance(sch, 200, step_var * 1.01)


@pytest.mark.parametrize("t_target, sigma2, error, message", [
    (200, -0.25, ValueError, "sigma2 must be finite and >= 0, got -0.25"),
    (200, math.nan, ValueError, "sigma2 must be finite and >= 0, got nan"),
    (200, math.inf, ValueError, "sigma2 must be finite and >= 0, got inf"),
    (0, 0.25, IndexError, "step 0 outside [1, 1000]"),
    (-1, 0.25, IndexError, "step -1 outside [1, 1000]"),
    (1001, 0.25, IndexError, "step 1001 outside [1, 1000]"),
], ids=["negative", "nan", "inf", "step-0", "step-below", "step-above"])
def test_compensation_variance_checks_its_arguments(t_target, sigma2, error, message):
    with pytest.raises(error) as info:
        compensation_variance(build_linear_schedule(), t_target, sigma2)
    assert (info.type, str(info.value)) == (error, message)


def test_schedule_constructor_validates_consistency():
    """T, alphas and alpha_bars are derived from the betas, so they cannot
    disagree; the betas and what cumprod makes of them are still checked."""
    betas = np.array([0.1, 0.2])
    good = Schedule(betas=betas)
    assert good.T == 2 and type(good.T) is int
    assert np.array_equal(good.alphas, 1.0 - betas)
    assert np.array_equal(good.alpha_bars, np.cumprod(1.0 - betas))
    assert good.alpha_bar(2) == pytest.approx(0.72, rel=1e-15)
    assert betas.flags.writeable and good.betas is not betas
    assert not good.alpha_bars.flags.writeable
    with pytest.raises(TypeError):
        Schedule(betas=betas, alphas=1.0 - betas)
    for bad in ([], [[0.1, 0.2]], [0.1, 1.0], [0.0, 0.2], [0.1, float("nan")]):
        with pytest.raises(ConfigurationError, match="^betas: "):
            Schedule(betas=np.array(bad))
    # 1 - 1e-17 rounds to 1: the first alpha_bar is 1, then the product stalls
    for bad in ([1e-17, 0.2], [0.5, 1e-17]):
        with pytest.raises(ConfigurationError, match="^alpha_bars: "):
            Schedule(betas=np.array(bad))
    with pytest.raises(ConfigurationError, match="^alpha_bars: "):
        Schedule(betas=np.full(400, 0.9))  # 0.1**400 underflows to 0

