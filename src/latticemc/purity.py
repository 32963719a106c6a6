"""Robustness of the prepared superposition against missed photocounts.

Each lost count shifts the relative phase of the two superposition
components by 2*phi; L losses leave an (L+1)-member mixture whose purity
has a closed form.
"""

from __future__ import annotations

import numpy as np

from .optics import ProbeModel, cat_phase


def purity(L: int, phi: float) -> float:
    """Closed-form purity after L lost counts (symmetric superposition).

    P_L = (1 + sin^2((L+1) phi) / ((L+1)^2 sin^2 phi)) / 2, with the
    removable singularity at phi = k*pi evaluating to 1.  Always in
    [1/2, 1].  One loss gives P_1 = (1 + cos^2 phi)/2.  For
    |phi| <= pi/(2(L+1)), P_L >= (1 + 4/pi^2)/2 ~ 0.7026, since
    sin x >= 2x/pi on [0, pi/2] and |sin phi| <= |phi|.
    """
    if L < 0:
        raise ValueError("L must be >= 0")
    s = np.sin(phi)
    if abs(s) < 1e-12:
        return 1.0
    ratio = np.sin((L + 1) * phi) / ((L + 1) * s)
    return float(0.5 * (1.0 + ratio**2))


def purity_sweep(loss_counts, delta_z_grid, model: ProbeModel) -> np.ndarray:
    """Purity vs doublet splitting for each loss count.

    phi follows from the transmission cat phase at each splitting.  Returns
    rows (delta_z, L, purity).
    """
    rows = []
    for dz in delta_z_grid:
        phi = cat_phase(model, float(dz))
        for L in loss_counts:
            rows.append((float(dz), int(L), purity(int(L), phi)))
    return np.array(rows)
