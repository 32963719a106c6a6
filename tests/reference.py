"""Plain reference implementations that several test files share."""

import numpy as np

from latticemc.states import ZDistribution


def gaussian_approximation(mean: float, sigma: float, z_grid) -> ZDistribution:
    """Discrete Gaussian weights renormalized on the given z grid."""
    z = np.asarray(z_grid, dtype=int)
    logw = -0.5 * ((z - mean) / sigma) ** 2
    w = np.exp(logw - logw.max())
    return ZDistribution(z, w / w.sum())


def fwhm_of_peak(dist: ZDistribution, peak_index: int) -> float:
    """FWHM of one peak via half-maximum crossings, linearly interpolated.

    Peaks narrower than the grid spacing report the interpolation floor,
    never zero, unless the peak is a strict point mass.
    """
    z = dist.z_values.astype(float)
    p = dist.probabilities
    half = p[peak_index] / 2.0
    i = peak_index
    while i > 0 and p[i - 1] > half and p[i - 1] < p[i]:
        i -= 1
    if i == 0 or p[i - 1] >= p[i]:
        left = z[i]
    else:
        frac = (p[i] - half) / (p[i] - p[i - 1])
        left = z[i] - frac * (z[i] - z[i - 1])
    j = peak_index
    n = len(p)
    while j < n - 1 and p[j + 1] > half and p[j + 1] < p[j]:
        j += 1
    if j == n - 1 or p[j + 1] >= p[j]:
        right = z[j]
    else:
        frac = (p[j] - half) / (p[j] - p[j + 1])
        right = z[j] + frac * (z[j + 1] - z[j])
    return float(right - left)
