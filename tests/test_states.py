import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaln
from scipy.special import log1p as special_log1p
from scipy.stats import binom

import latticemc
from latticemc import states
from latticemc.geometry import LatticeSpec, Scenario
from latticemc.states import (ZDistribution, _binomial, _log1p,
                              load_distribution, log_factorials,
                              mott_distribution, superfluid_atom_number,
                              superfluid_difference)
from reference import gaussian_approximation


def test_superfluid_atom_number_half_illumination():
    d = superfluid_atom_number(LatticeSpec(100, 100, 50))
    assert d.mean == pytest.approx(50.0, abs=1e-9)
    assert d.std == pytest.approx(5.0, abs=1e-9)
    assert d.probabilities.sum() == pytest.approx(1.0, abs=1e-12)


def test_superfluid_atom_number_full_illumination_point_mass():
    d = superfluid_atom_number(LatticeSpec(30, 10, 10))
    assert d.probabilities[-1] == pytest.approx(1.0, abs=1e-12)
    assert d.std == pytest.approx(0.0, abs=1e-9)


def test_superfluid_atom_number_small_binomial():
    d = superfluid_atom_number(LatticeSpec(4, 2, 1))
    expected = np.array([1, 4, 6, 4, 1]) / 16
    np.testing.assert_allclose(d.probabilities, expected, atol=1e-12)


def test_superfluid_atom_number_matches_direct_binomial():
    rng = np.random.default_rng(2)
    for _ in range(20):
        m = int(rng.integers(2, 12))
        k = int(rng.integers(1, m + 1))
        n = int(rng.integers(1, 40))
        d = superfluid_atom_number(LatticeSpec(n, m, k))
        direct = binom.pmf(np.arange(n + 1), n, k / m)
        np.testing.assert_allclose(d.probabilities, direct, atol=1e-12)


def test_binomial_is_scipy_logpmf_bit_for_bit():
    """p0's bits set the random stream of every run: the helper must equal
    exp(binom.logpmf) exactly, N = 1-129, 200, 500, 1000 and K/M in
    {1/M, floor(M/3)/M, floor(M/2)/M, 1}."""
    cases = 0
    for n in [*range(1, 130), 200, 500, 1000]:
        for m in (1, 2, 3, 4, 5, 7, 10, 64, 100, 128):
            for k in {1, m // 3, m // 2, m} - {0}:
                want = np.exp(binom.logpmf(np.arange(n + 1), n, k / m))
                assert _binomial(n, k / m).tobytes() == want.tobytes()
                cases += 1
    assert cases == 4092


def test_log_factorials_are_scipy_gammaln_bit_for_bit(monkeypatch):
    monkeypatch.setattr(states, "_log_factorial_table", np.zeros(0))
    n = np.arange(2_000_001)
    got = log_factorials(len(n) - 1)
    assert got.tobytes() == gammaln(n + 1.0).tobytes()


def test_log_factorials_grown_in_steps_equal_one_build(monkeypatch):
    """Steps that cross cephes' branch edges (n = 11 | 12, x = 1000) give
    the table one call builds, and each call's view is its prefix."""
    monkeypatch.setattr(states, "_log_factorial_table", np.zeros(0))
    views = {n: log_factorials(n) for n in (5, 11, 12, 998, 999, 1000,
                                            200_000)}
    stepped = views[200_000].tobytes()
    monkeypatch.setattr(states, "_log_factorial_table", np.zeros(0))
    assert log_factorials(200_000).tobytes() == stepped
    for n, view in views.items():
        assert len(view) == n + 1
        assert view.tobytes() == stepped[:8 * (n + 1)]


def test_log_factorials_are_read_only():
    view = log_factorials(30)
    with pytest.raises(ValueError, match="read-only"):
        view[3] = 0.0
    assert not log_factorials(5).flags.writeable


def test_log1p_is_scipy_log1p_bit_for_bit():
    """At every r = K/M with M <= 128, and at 1e5 random r in (0, 1], the
    argument range `_binomial` gives it (r = 1 gives -inf)."""
    r = [k / m for m in range(1, 129) for k in range(m + 1)]
    r += (1.0 - np.random.default_rng(7).random(100_000)).tolist()
    got = np.array([_log1p(-x) for x in r])
    assert got.tobytes() == special_log1p(-np.array(r)).tobytes()


# Each command the benchmark or a preset runs, in one process, after the
# benchmark's set-up; none may import scipy or numpy.ma.
_IMPORT_CHILD = """\
import json, sys
import latticemc
from latticemc import cli
for name in ("fig2", "fig3", "fig4", "fig5"):
    cfg = cli.parse_config(cli.load_preset(name))
    p0 = cli.initial_distribution(cfg)
    latticemc.amplitude_table(cli.probe_model(cfg), p0.z_values)
codes, loaded = [], []
for argv in ("ensemble --preset fig3 --n-traj 3", "trajectory --preset fig2",
             "purity-sweep --preset fig6", "oracle-check"):
    codes.append(cli.main([*argv.split(), "--out", sys.argv[1]]))
    loaded.append(sorted(m for m in sys.modules if m == "numpy.ma"
                         or m.startswith("numpy.ma.") or m == "scipy"
                         or m.startswith("scipy.")))
print(json.dumps([latticemc.__file__, codes, loaded]))
"""


def test_no_command_imports_scipy(tmp_path):
    """Set-up and all four commands, oracle-check included, load no scipy
    module and not numpy.ma (neither is deferred to a later call)."""
    src = str(Path(latticemc.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _IMPORT_CHILD, str(tmp_path)],
                         check=True, capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    file, codes, loaded = json.loads(out.splitlines()[-1])
    assert file.startswith(src) and codes == [0, 0, 0, 0]
    assert loaded == [[], [], [], []]


def test_superfluid_difference_moments():
    d = superfluid_difference(LatticeSpec(100, 100, 100))
    assert d.mean == pytest.approx(0.0, abs=1e-9)
    assert d.std == pytest.approx(10.0, abs=1e-9)
    assert d.z_values[0] == -100 and d.z_values[-1] == 100


def test_superfluid_difference_single_atom():
    d = superfluid_difference(LatticeSpec(1, 2, 2))
    np.testing.assert_array_equal(d.z_values, [-1, 1])
    np.testing.assert_allclose(d.probabilities, [0.5, 0.5], atol=1e-12)


def test_superfluid_difference_two_atoms():
    d = superfluid_difference(LatticeSpec(2, 2, 2))
    np.testing.assert_array_equal(d.z_values, [-2, 0, 2])
    np.testing.assert_allclose(d.probabilities, [0.25, 0.5, 0.25], atol=1e-12)


def test_superfluid_difference_is_pushforward_of_binomial():
    # z = 2*z_odd - N must reproduce Binomial(N, 1/2) pushed onto the z grid
    n = 17
    d = superfluid_difference(LatticeSpec(n, 4, 4))
    direct = binom.pmf(np.arange(n + 1), n, 0.5)
    np.testing.assert_allclose(d.probabilities, direct, atol=1e-12)


def test_superfluid_difference_validation():
    with pytest.raises(ValueError):
        superfluid_difference(LatticeSpec(4, 4, 2))
    with pytest.raises(ValueError):
        superfluid_difference(LatticeSpec(4, 3, 3))


def test_gaussian_approximation_peak_and_symmetry():
    d = gaussian_approximation(50.0, 5.0, np.arange(101))
    # peak close to the continuum density 1/(sigma sqrt(2 pi))
    assert abs(d.probabilities[50] - 1 / (5 * np.sqrt(2 * np.pi))) < 1e-3
    np.testing.assert_allclose(d.probabilities, d.probabilities[::-1], atol=1e-15)
    assert np.argmax(d.probabilities) == 50


def test_gaussian_close_to_binomial_at_large_n():
    spec = LatticeSpec(100, 100, 50)
    b = superfluid_atom_number(spec)
    g = gaussian_approximation(50.0, 5.0, np.arange(101))
    assert np.max(np.abs(b.probabilities - g.probabilities)) < 1e-3


def test_mott_distribution_atom_number():
    d = mott_distribution(LatticeSpec(100, 100, 50), Scenario.MAXIMUM)
    assert d.probabilities[50] == 1.0
    assert d.probabilities.sum() == 1.0


def test_mott_distribution_difference():
    spec = LatticeSpec(100, 100, 100)
    d = mott_distribution(spec, Scenario.MINIMUM)
    np.testing.assert_array_equal(d.z_values, np.arange(-100, 101, 2))
    assert d.probabilities[np.nonzero(d.z_values == 0)[0][0]] == 1.0
    # two odd sites and one even: z = 1 on the grid -3, -1, 1, 3
    odd = mott_distribution(LatticeSpec(3, 3, 3), Scenario.MINIMUM)
    assert odd.probabilities.tolist() == [0.0, 0.0, 1.0, 0.0]


def test_mott_distribution_validation():
    with pytest.raises(ValueError):
        mott_distribution(LatticeSpec(50, 100, 50), Scenario.MAXIMUM)


def test_zdistribution_invariants():
    with pytest.raises(ValueError):
        ZDistribution(np.array([0, 1]), np.array([0.6, 0.6]))
    with pytest.raises(ValueError):
        ZDistribution(np.array([1, 0]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        ZDistribution(np.array([0, 1]), np.array([1.5, -0.5]))


def test_variance_identity_random():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        z = np.sort(rng.choice(np.arange(-50, 50), size=n, replace=False))
        p = rng.dirichlet(np.ones(n))
        d = ZDistribution(z, p)
        direct = float(np.dot(p, (z - d.mean) ** 2))
        assert d.variance == pytest.approx(direct, abs=1e-9)


def test_load_distribution_roundtrip(tmp_path):
    src = superfluid_atom_number(LatticeSpec(20, 4, 2))
    path = tmp_path / "dist.txt"
    np.savetxt(path, np.column_stack([src.z_values, src.probabilities]))
    loaded = load_distribution(path)
    np.testing.assert_array_equal(loaded.z_values, src.z_values)
    np.testing.assert_allclose(loaded.probabilities, src.probabilities,
                               atol=1e-12)


def test_load_distribution_renormalizes_with_warning(tmp_path):
    path = tmp_path / "dist.txt"
    np.savetxt(path, [[0, 0.3], [1, 0.3]])
    with pytest.warns(UserWarning):
        loaded = load_distribution(path)
    np.testing.assert_allclose(loaded.probabilities, [0.5, 0.5], atol=1e-12)


def test_load_distribution_rejects_bad_shape(tmp_path):
    path = tmp_path / "dist.txt"
    np.savetxt(path, [[0, 0.5, 1.0], [1, 0.5, 1.0]])
    with pytest.raises(ValueError):
        load_distribution(path)
