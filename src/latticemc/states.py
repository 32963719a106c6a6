"""Initial atom-number distributions p0(z).

Constructors for the superfluid (binomial), Mott-insulator (point mass)
and file-loaded distributions over the scenario's statistical variable z.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlog1py, xlogy

from .geometry import (LatticeSpec, Scenario, coupling_coefficient,
                       scenario_geometry)

_NORM_TOL = 1e-12


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


def _binomial(n: int, r: float) -> np.ndarray:
    """Binomial(n, r) weights on 0..n from the terms of scipy's
    `binom.logpmf`, in its order, so they match it bit for bit."""
    k = np.arange(n + 1, dtype=float)
    return np.exp(gammaln(n + 1) - (gammaln(k + 1) + gammaln(n - k + 1))
                  + xlogy(k, r) + xlog1py(n - k, -r))


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
    total = p.sum()
    if abs(total - 1.0) > 1e-6:
        warnings.warn(f"loaded probabilities sum to {total:.8g}; renormalizing",
                      stacklevel=2)
    order = np.argsort(z)
    return ZDistribution(z[order].astype(int), _normalized(p[order]))
