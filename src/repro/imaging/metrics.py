"""Image quality metrics: MSE, PSNR and SSIM.

SSIM follows Wang et al. (2004) with the standard 11x11 Gaussian window
(sigma = 1.5) and stabilisation constants K1 = 0.01, K2 = 0.03, matching the
configuration used by common toolboxes and, per the paper, the QoR measure of
all three case studies.

For the evaluation engine the metric also comes in a batched flavour:
:class:`BatchedSsim` scores a whole ``(runs, H, W)`` stack of test images
(one configuration's outputs) against a fixed reference stack in one
vectorised pass.  The reference-side window statistics are precomputed once
(two of the five Gaussian filters an SSIM evaluation needs), which matters
when thousands of configurations are scored, one after another, against the
same golden outputs.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage


def _as_float_pair(a: np.ndarray, b: np.ndarray):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.ndim != 2:
        raise ValueError("metrics expect 2-D gray-scale images")
    return a, b


def mse(reference: np.ndarray, test: np.ndarray) -> float:
    """Mean squared error between two gray-scale images."""
    a, b = _as_float_pair(reference, test)
    return float(np.mean((a - b) ** 2))


def psnr(
    reference: np.ndarray, test: np.ndarray, data_range: float = 255.0
) -> float:
    """Peak signal-to-noise ratio in dB (``inf`` for identical images)."""
    err = mse(reference, test)
    if err == 0.0:
        return float("inf")
    return float(10.0 * np.log10(data_range**2 / err))


def ssim(
    reference: np.ndarray,
    test: np.ndarray,
    data_range: float = 255.0,
    sigma: float = 1.5,
    truncate: float = 3.5,
    k1: float = 0.01,
    k2: float = 0.03,
) -> float:
    """Mean structural similarity index between two gray-scale images.

    Local statistics are computed with a Gaussian window of width
    ``2 * truncate * sigma + 1`` (11 px for the defaults).  Returns a value
    in [-1, 1]; 1 means identical images.
    """
    a, b = _as_float_pair(reference, test)
    if data_range <= 0:
        raise ValueError("data_range must be positive")

    def win_mean(img: np.ndarray) -> np.ndarray:
        return ndimage.gaussian_filter(
            img, sigma=sigma, truncate=truncate, mode="reflect"
        )

    mu_a = win_mean(a)
    mu_b = win_mean(b)
    mu_aa = win_mean(a * a)
    mu_bb = win_mean(b * b)
    mu_ab = win_mean(a * b)

    var_a = mu_aa - mu_a * mu_a
    var_b = mu_bb - mu_b * mu_b
    cov_ab = mu_ab - mu_a * mu_b

    c1 = (k1 * data_range) ** 2
    c2 = (k2 * data_range) ** 2
    numerator = (2 * mu_a * mu_b + c1) * (2 * cov_ab + c2)
    denominator = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    return float(np.mean(numerator / denominator))


class BatchedSsim:
    """SSIM of image stacks against a fixed reference stack.

    The reference ``(runs, H, W)`` stack is filtered once at construction;
    every :meth:`__call__` then needs only the three test-side Gaussian
    filters.  Filtering uses ``sigma = 0`` along the run axis, so each
    slice sees exactly the 2-D window of :func:`ssim` and the per-run
    scores match the scalar metric.
    """

    def __init__(
        self,
        reference: np.ndarray,
        data_range: float = 255.0,
        sigma: float = 1.5,
        truncate: float = 3.5,
        k1: float = 0.01,
        k2: float = 0.03,
    ):
        reference = np.asarray(reference, dtype=float)
        if reference.ndim != 3:
            raise ValueError("BatchedSsim expects a (runs, H, W) stack")
        if data_range <= 0:
            raise ValueError("data_range must be positive")
        self._sigma = (0.0, sigma, sigma)
        self._truncate = truncate
        self._c1 = (k1 * data_range) ** 2
        self._c2 = (k2 * data_range) ** 2
        self._ref = reference
        self._mu_a = self._blur(reference)
        self._mu_aa = self._blur(reference * reference)
        # Reference-only terms of the SSIM formula, computed once.
        self._two_mu_a = 2.0 * self._mu_a
        self._mu_a_sq_c1 = self._mu_a * self._mu_a + self._c1
        self._var_a_c2 = (
            self._mu_aa - self._mu_a * self._mu_a + self._c2
        )

    def _blur(self, stack: np.ndarray) -> np.ndarray:
        return ndimage.gaussian_filter(
            stack,
            sigma=self._sigma,
            truncate=self._truncate,
            mode="reflect",
        )

    @property
    def shape(self):
        return self._ref.shape

    def __call__(self, test: np.ndarray) -> np.ndarray:
        """Per-run SSIM scores of ``test`` (same shape as the reference)."""
        b = np.asarray(test, dtype=float)
        if b.shape != self._ref.shape:
            raise ValueError(
                f"shape mismatch: {b.shape} vs {self._ref.shape}"
            )
        mu_b = self._blur(b)
        mu_bb = self._blur(b * b)
        mu_ab = self._blur(self._ref * b)
        # cov_ab = mu_ab - mu_a * mu_b, built in place on mu_ab.
        mu_ab -= self._mu_a * mu_b
        mu_ab *= 2.0
        mu_ab += self._c2
        numerator = (self._two_mu_a * mu_b + self._c1) * mu_ab
        mu_b *= mu_b  # mu_b ** 2, in place
        mu_bb -= mu_b  # var_b, in place
        mu_bb += self._var_a_c2
        mu_b += self._mu_a_sq_c1
        numerator /= mu_b
        numerator /= mu_bb
        return np.mean(numerator, axis=(1, 2))

    def batch(self, test: np.ndarray) -> np.ndarray:
        """Per-run SSIM of a ``(C, runs, H, W)`` configuration stack.

        Row ``c`` of the returned ``(C, runs)`` score matrix is
        ``__call__(test[c])``.
        """
        b = np.asarray(test, dtype=float)
        if b.ndim != 4 or b.shape[1:] != self._ref.shape:
            raise ValueError(
                f"expected a (C,) + {self._ref.shape} stack, "
                f"got {b.shape}"
            )
        scores = np.empty(b.shape[:2])
        for c, stack in enumerate(b):
            scores[c] = self(stack)
        return scores


def ssim_batch(
    reference: np.ndarray, test: np.ndarray, **kwargs
) -> np.ndarray:
    """Per-run SSIM of two ``(runs, H, W)`` stacks (see :class:`BatchedSsim`)."""
    return BatchedSsim(reference, **kwargs)(test)
