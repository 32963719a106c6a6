import numpy as np
import pytest

from latticemc.geometry import Scenario
from latticemc.optics import ProbeModel
from latticemc.purity import purity, purity_sweep
from reference import CatMixture, density_matrix


def trans_model(u11=1.0, kappa=1.0):
    return ProbeModel(Scenario.TRANSMISSION, kappa=kappa, u11=u11, eta=1.0)


def test_purity_no_loss_is_pure():
    for phi in np.linspace(-1.5, 1.5, 31):
        assert purity(0, phi) == pytest.approx(1.0, abs=1e-12)


def test_purity_one_loss_quarter_phase():
    # one lost count at phi = pi/4: P = (1 + cos^2 phi)/2 = 3/4
    assert purity(1, np.pi / 4) == pytest.approx(0.75, abs=1e-12)
    # orthogonal dephasing: fully mixed
    assert purity(1, np.pi / 2) == pytest.approx(0.5, abs=1e-12)


def test_purity_removable_singularity():
    for phi in (0.0, np.pi, -np.pi, 2 * np.pi, 1e-14):
        for L in (0, 1, 5, 20):
            assert purity(L, phi) == 1.0


def test_purity_range_and_validation():
    rng = np.random.default_rng(10)
    for _ in range(200):
        L = int(rng.integers(0, 30))
        phi = rng.uniform(-np.pi, np.pi)
        p = purity(L, phi)
        assert 0.5 - 1e-12 <= p <= 1.0 + 1e-12
    with pytest.raises(ValueError):
        purity(-1, 0.3)


def test_purity_matches_density_matrix_trace():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        L = int(rng.integers(0, 21))
        phi = rng.uniform(-np.pi, np.pi)
        gamma = rng.uniform(0, 2 * np.pi)
        rho = density_matrix(CatMixture(phi=phi, gamma=gamma, losses=L))
        tr = float(np.real(np.trace(rho @ rho)))
        assert abs(purity(L, phi) - tr) < 1e-12


def test_purity_nonmonotonic_in_phi():
    # P_L revives at phi = pi even for many losses
    values = [purity(3, phi) for phi in np.linspace(0.01, np.pi, 200)]
    drops = np.diff(values) < 0
    rises = np.diff(values) > 0
    assert drops.any() and rises.any()
    assert values[-1] == pytest.approx(1.0, abs=1e-4)


def test_density_matrix_structure():
    rho = density_matrix(CatMixture(phi=0.3, gamma=0.1, losses=2,
                                    weights=(0.7, 0.3)))
    assert rho.shape == (2, 2)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(rho, rho.conj().T, atol=1e-15)
    evals = np.linalg.eigvalsh(rho)
    assert evals.min() >= -1e-12
    # off-diagonal magnitude bounded by sqrt(w1 w2)
    assert abs(rho[0, 1]) <= np.sqrt(0.7 * 0.3) + 1e-12


def test_density_matrix_no_loss_pure_state():
    rho = density_matrix(CatMixture(phi=0.4, losses=0))
    np.testing.assert_allclose(rho @ rho, rho, atol=1e-12)


def test_cat_mixture_validation():
    with pytest.raises(ValueError):
        CatMixture(phi=0.1, losses=-1)
    with pytest.raises(ValueError):
        CatMixture(phi=0.1, weights=(0.7, 0.7))


def test_purity_sweep_layout_and_values():
    model = trans_model()
    dz = np.linspace(0.0, 10.0, 11)
    rows = purity_sweep([0, 1, 3], dz, model)
    assert rows.shape == (33, 3)
    for dz_val, L, p in rows:
        phi = -np.arctan(dz_val)
        assert p == pytest.approx(purity(int(L), phi), abs=1e-12)
    # L = 0 rows all pure
    np.testing.assert_allclose(rows[rows[:, 1] == 0][:, 2], 1.0, atol=1e-12)


def test_purity_sweep_large_splitting_floor():
    # dz -> inf gives phi -> -pi/2 and the residual purity (1 + 1/(L+1)^2)/2
    model = trans_model()
    rows = purity_sweep([10], [1e6], model)
    assert rows[0, 2] == pytest.approx(0.5 * (1 + 1 / 121), abs=1e-4)
