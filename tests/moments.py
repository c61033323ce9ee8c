"""A Monte-Carlo distribution check for the tests: ``gaussianity_check``
verifies that simulated samples have the mean and variance a noise model
predicts, in units of standard errors, and is the workhorse behind the
channel-to-forward equivalence tests."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class GaussianityReport:
    """Outcome of a sample-moment check against a target Gaussian;
    ``passed`` is derived: true when there are no ``failures``."""

    n: int
    tol_se: float
    passed: bool = field(init=False)
    failures: tuple[str, ...]
    max_mean_dev_se: float
    max_var_dev_se: float

    def __post_init__(self):
        object.__setattr__(self, "passed", not self.failures)


def gaussianity_check(
    samples: np.ndarray,
    mu: float | np.ndarray,
    sigma2: float | np.ndarray,
    tol_se: float = 4.0,
) -> GaussianityReport:
    """Check sample means and variances against a Gaussian prediction.

    ``samples`` has one row per draw and one column per dimension.  Each
    dimension's sample mean must lie within ``tol_se`` standard errors of
    ``mu`` (standard error ``sqrt(sigma2 / n)``) and its unbiased sample
    variance within ``tol_se`` standard errors of ``sigma2`` (standard
    error ``sigma2 * sqrt(2 / (n - 1))``).

    Requires at least 1000 draws; fewer make the variance standard error
    formula too unreliable to act on.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim == 1:
        samples = samples[:, None]
    if samples.ndim != 2:
        raise ValueError(f"samples must be a 2-D array, got ndim={samples.ndim}")
    n, d = samples.shape
    if n < 1000:
        raise ValueError(f"too few samples: need at least 1000 draws, got {n}")
    mu_t = np.broadcast_to(np.asarray(mu, dtype=np.float64), (d,))
    s2_t = np.broadcast_to(np.asarray(sigma2, dtype=np.float64), (d,))
    if np.any(s2_t < 0.0):
        raise ValueError("sigma2 must be >= 0")

    mean = samples.mean(axis=0)
    var = samples.var(axis=0, ddof=1)
    se_mean = np.sqrt(s2_t / n)
    se_var = s2_t * math.sqrt(2.0 / (n - 1))

    failures = []
    with np.errstate(divide="ignore", invalid="ignore"):
        mean_dev = np.abs(mean - mu_t) / se_mean
        var_dev = np.abs(var - s2_t) / se_var
    # zero target variance: the samples must be exactly constant
    mean_dev = np.where(s2_t == 0.0, np.where(mean == mu_t, 0.0, np.inf), mean_dev)
    var_dev = np.where(s2_t == 0.0, np.where(var == 0.0, 0.0, np.inf), var_dev)
    for j in range(d):
        if mean_dev[j] > tol_se:
            failures.append(
                f"dim {j}: mean {mean[j]:.6g} deviates {mean_dev[j]:.2f} SE "
                f"from {mu_t[j]:.6g}"
            )
        if var_dev[j] > tol_se:
            failures.append(
                f"dim {j}: variance {var[j]:.6g} deviates {var_dev[j]:.2f} SE "
                f"from {s2_t[j]:.6g}"
            )
    return GaussianityReport(
        n=n,
        tol_se=tol_se,
        failures=tuple(failures),
        max_mean_dev_se=float(np.max(mean_dev)),
        max_var_dev_se=float(np.max(var_dev)),
    )
