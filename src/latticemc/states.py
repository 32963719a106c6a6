"""Initial atom-number distributions p0(z).

Constructors for the superfluid (binomial), Mott-insulator (point mass)
and file-loaded distributions over the scenario's statistical variable z.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import (LatticeSpec, Scenario, coupling_coefficient,
                       scenario_geometry)

_NORM_TOL = 1e-12

# Constants of scipy's cephes `lgam` and `log1p` (BSD-licensed), ported for
# the arguments used here so that their results keep scipy's bits.
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_LGAM_A = (8.11614167470508450300E-4, -5.95061904284301438324E-4,
           7.93650340457716943945E-4, -2.77777777730099687205E-3,
           8.33333333333331927722E-2)
_LOG1P_P = (4.5270000862445199635215E-5, 4.9854102823193375972212E-1,
            6.5787325942061044846969E0, 2.9911919328553073277375E1,
            6.0949667980987787057556E1, 5.7112963590585538103336E1,
            2.0039553499201281259648E1)
_LOG1P_Q = (1.0, 1.5062909083469192043167E1, 8.3047565967967209469434E1,
            2.2176239823732856465394E2, 3.0909872225312059774938E2,
            2.1642788614495947685003E2, 6.0118660497603843919306E1)
_log_factorial_table = np.zeros(0)  # log n!, n = 0.., only ever extended


@dataclass(frozen=True)
class ZDistribution:
    """Probability vector over an ordered integer grid of z values."""

    z_values: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z_values, dtype=int)
        p = np.asarray(self.probabilities, dtype=float)
        if z.shape != p.shape or z.ndim != 1:
            raise ValueError("z_values and probabilities must be equal-length 1D")
        if np.any(np.diff(z) <= 0):
            raise ValueError("z_values must be strictly increasing")
        if np.any(p < 0):
            raise ValueError("probabilities must be nonnegative")
        if not abs(p.sum() - 1.0) <= _NORM_TOL:  # nan fails too
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
        object.__setattr__(self, "z_values", z)
        object.__setattr__(self, "probabilities", p)

    @property
    def mean(self) -> float:
        return float(np.dot(self.z_values, self.probabilities))

    @property
    def variance(self) -> float:
        return float(np.dot(self.z_values**2, self.probabilities) - self.mean**2)

    @property
    def std(self) -> float:
        return float(np.sqrt(max(self.variance, 0.0)))

    def with_probabilities(self, p: np.ndarray) -> "ZDistribution":
        """The same grid with probabilities p, taken as valid: unchecked."""
        new = object.__new__(ZDistribution)
        new.__dict__.update(self.__dict__, probabilities=p)
        return new


def _normalized(weights: np.ndarray) -> np.ndarray:
    total = weights.sum()
    if total <= 0:
        raise ValueError("cannot normalize all-zero weights")
    return weights / total


def _polevl(x, coefs):
    """cephes' Horner sum, highest power first, with no fused multiply-add."""
    total = coefs[0]
    for c in coefs[1:]:
        total = total * x + c
    return total


def log_factorials(n_max: int) -> np.ndarray:
    """log n! for n = 0..n_max, bit for bit scipy's `gammaln(n + 1)`.

    A read-only view of a module table that only grows.  Each entry is
    cephes' `lgam` at x = n + 1: log of n! itself up to n = 11, then
    Stirling's series, with log x from the C library's `log` (`math.log`,
    as in scipy; numpy's SIMD `log` rounds some x differently).  Past
    x = 1000 cephes cuts the series to 3 terms and past 1e8 drops it; the
    5-term series alone rounds to the same bits there.
    """
    global _log_factorial_table
    have = len(_log_factorial_table)
    if n_max >= have:
        small = [math.log(math.factorial(n))
                 for n in range(have, min(n_max, 11) + 1)]
        x = np.arange(max(have, 12) + 1, n_max + 2, dtype=float)
        log_x = np.fromiter(map(math.log, x.tolist()), float, len(x))
        q = ((x - 0.5) * log_x - x + _LS2PI
             + _polevl(1.0 / (x * x), _LGAM_A) / x)
        _log_factorial_table = np.concatenate([_log_factorial_table, small, q])
        _log_factorial_table.flags.writeable = False
    return _log_factorial_table[:n_max + 1]


def _log1p(x: float) -> float:
    """cephes' `log1p`, which scipy's `xlog1py` calls: a rational form for
    1 + x in [sqrt(1/2), sqrt(2)], the C library's log(1 + x) elsewhere
    (`math.log1p` rounds some x differently)."""
    z = 1.0 + x
    if z < 0.70710678118654752440 or z > 1.41421356237309504880:
        return math.log(z) if z else -math.inf
    z = x * x
    return x + (-0.5 * z + x * (z * _polevl(x, _LOG1P_P)
                                / _polevl(x, _LOG1P_Q)))


def _xlogy(x: np.ndarray, log_y: float) -> np.ndarray:
    """x * log_y, and 0 where x = 0, as scipy's `xlogy` and `xlog1py`."""
    return np.multiply(x, log_y, out=np.zeros_like(x), where=x != 0)


def _binomial(n: int, r: float) -> np.ndarray:
    """Binomial(n, r) weights on 0..n from the terms of scipy's
    `binom.logpmf`, in its order, so they match it bit for bit."""
    k = np.arange(n + 1, dtype=float)
    lf = log_factorials(n)
    return np.exp(lf[n] - (lf + lf[::-1])
                  + _xlogy(k, math.log(r)) + _xlogy(n - k, _log1p(-r)))


def superfluid_atom_number(spec: LatticeSpec) -> ZDistribution:
    """Binomial distribution of the atom number at K illuminated sites.

    p(z) = C(N, z) (K/M)^z (1 - K/M)^(N - z), z = 0..N.  Computed in log
    space so it stays finite at large N.
    """
    n = spec.n_atoms
    p = _binomial(n, spec.n_illuminated / spec.n_sites)
    return ZDistribution(np.arange(n + 1), _normalized(p))


def superfluid_difference(spec: LatticeSpec) -> ZDistribution:
    """Distribution of the odd-even atom-number difference in a superfluid.

    Requires all sites illuminated and an even number of sites, so the
    atom number at odd sites is Binomial(N, 1/2); z = 2*z_tilde - N runs
    over -N..N in steps of 2 with zero mean and variance N.
    """
    if spec.n_illuminated != spec.n_sites:
        raise ValueError("difference distribution requires K = M")
    if spec.n_sites % 2 != 0:
        raise ValueError("difference distribution requires even M")
    n = spec.n_atoms
    return ZDistribution(2 * np.arange(n + 1) - n, _normalized(_binomial(n, 0.5)))


def superfluid_distribution(spec: LatticeSpec,
                            scenario: Scenario) -> ZDistribution:
    """The superfluid's p0(z): the odd-even difference at the minimum."""
    return (superfluid_difference(spec) if scenario is Scenario.MINIMUM
            else superfluid_atom_number(spec))


def mott_distribution(spec: LatticeSpec, scenario: Scenario) -> ZDistribution:
    """Point-mass distribution for the unit-filling Mott insulator.

    The mass sits at the scenario's z of one atom per site, the D_10 of
    its mode functions: K for the atom number, 0 or 1 for the odd-even
    difference.
    """
    if spec.n_atoms != spec.n_sites:
        raise ValueError("Mott distribution requires unit filling N = M")
    geom = scenario_geometry(scenario, spec)
    d = coupling_coefficient(np.ones(spec.n_sites, dtype=int), geom.cavity,
                             geom.probe, spec)
    z = np.asarray(geom.z_grid)
    return ZDistribution(z, (z == round(d.real)).astype(float))


def load_distribution(path) -> ZDistribution:
    """Load a two-column (z, probability) text file.

    The distribution is renormalized on load; deviations of the column sum
    from 1 beyond 1e-6 trigger a warning.
    """
    data = np.loadtxt(path, ndmin=2)
    if data.shape[1] != 2:
        raise ValueError("expected a two-column (z, probability) file")
    z = data[:, 0]
    if np.any(z != np.round(z)):
        raise ValueError("z column must be integer-valued")
    p = data[:, 1]
    order = np.argsort(z)
    dist = ZDistribution(z[order].astype(int), _normalized(p[order]))
    total = p.sum()
    if abs(total - 1.0) > 1e-6:  # only once the file is known valid
        warnings.warn(f"loaded probabilities sum to {total:.8g}; renormalizing",
                      stacklevel=2)
    return dist
