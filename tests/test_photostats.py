import numpy as np
import pytest
from scipy.special import gammaln
from scipy.stats import poisson

from latticemc import photostats
from latticemc.cli import (initial_distribution, load_preset, parse_config,
                           probe_model)
from latticemc.geometry import LatticeSpec, Scenario
from latticemc.optics import ProbeModel, amplitude_table
from latticemc.photostats import (PhotonDistribution,
                                  photocount_distribution, poisson_mixture)
from latticemc.states import mott_distribution, superfluid_atom_number
from latticemc.trajectory import closed_form_distribution
from reference import poisson_mixture_per_z

SPEC = LatticeSpec(100, 100, 50)


def max_model():
    return ProbeModel(Scenario.MAXIMUM, kappa=1.0, u10=1.0, a0=1.0)


def test_poisson_mixture_single_component_is_poisson():
    d = poisson_mixture(np.array([3.5]), np.array([1.0]))
    np.testing.assert_allclose(d.probabilities,
                               poisson.pmf(d.n_values, 3.5), atol=1e-12)
    assert d.mean == pytest.approx(3.5, abs=1e-9)
    assert d.fano == pytest.approx(1.0, abs=1e-9)
    assert d.mandel_q == pytest.approx(0.0, abs=1e-9)


def test_poisson_mixture_zero_rate_point_mass():
    d = poisson_mixture(np.array([0.0]), np.array([1.0]))
    assert d.probabilities[0] == pytest.approx(1.0, abs=1e-12)
    assert d.mean == 0.0


def test_poisson_mixture_moments():
    # mixture mean is the weighted rate; variance gains the rate spread
    rates = np.array([1.0, 9.0])
    w = np.array([0.5, 0.5])
    d = poisson_mixture(rates, w)
    assert d.mean == pytest.approx(5.0, abs=1e-8)
    assert d.variance == pytest.approx(5.0 + 16.0, abs=1e-6)
    assert d.fano == pytest.approx(1.0 + 16.0 / 5.0, abs=1e-6)


def test_poisson_mixture_never_subpoissonian():
    rng = np.random.default_rng(6)
    for _ in range(30):
        rates = rng.uniform(0, 20, size=5)
        w = rng.dirichlet(np.ones(5))
        d = poisson_mixture(rates, w)
        assert d.fano >= 1.0 - 1e-9


def test_poisson_mixture_tail_truncation():
    d = poisson_mixture(np.array([200.0]), np.array([1.0]))
    # renormalized after capturing all but < 1e-10 of the mass
    assert d.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
    assert d.mean == pytest.approx(200.0, abs=1e-6)


def _dense_poisson_mixture(rates, weights):
    """Reference: every z's Poisson terms over the whole support at once."""
    top = rates.max(initial=0.0)
    n_max = int(np.ceil(top + 10.0 * np.sqrt(top) + 20.0))
    while True:
        n = np.arange(n_max + 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            logpmf = (np.outer(np.log(np.where(rates > 0, rates, 1.0)), n)
                      - rates[:, None] - gammaln(n + 1.0)[None, :])
        pmf = np.exp(logpmf)
        pmf[rates == 0] = 0.0
        pmf[rates == 0, 0] = 1.0
        p = weights @ pmf
        if 1.0 - p.sum() < 1e-10:
            return n, p / p.sum()
        n_max *= 2


def _running_sum_cut(n, p):
    """The prefix of (n, p) up to the first n at which the running sum of p
    takes its final value, checked to be the shortest such prefix."""
    running = np.cumsum(p)
    keep = int(np.flatnonzero(running == running[-1])[0]) + 1
    assert np.all(running[keep - 1:] == running[-1])  # the rest adds nothing
    if keep > 1:
        assert running[keep - 2] != running[-1]  # one row fewer changes it
    assert p[keep:].sum() < 1e-10
    return n[:keep], p[:keep]


@pytest.mark.parametrize("rates, weights", [
    ([0.0, 3.0, 50.0, 400.0], [0.3, 0.0, 0.5, 0.2]),  # rate 0, a zero weight
    ([0.0, 1e-3, 0.7], [0.0, 0.5, 0.5]),
    ([2.5e4], [1.0]),
])
def test_poisson_mixture_matches_dense_reference(rates, weights):
    rates, weights = np.array(rates), np.array(weights)
    got = poisson_mixture(rates, weights)
    n, p = _running_sum_cut(*_dense_poisson_mixture(rates, weights))
    np.testing.assert_array_equal(got.n_values, n)
    assert np.abs(got.probabilities - p).max() <= 1e-15


def test_poisson_mixture_matches_dense_reference_on_a_collapse():
    # photocount law of a maximum-scenario superfluid at tau = 0.5, 5, 30
    p0 = superfluid_atom_number(LatticeSpec(40, 40, 20))
    table = amplitude_table(max_model(), p0.z_values)
    for tau in (0.5, 5.0, 30.0):
        got = photocount_distribution(p0, table, 1.0, tau / 2.0)
        n, p = _running_sum_cut(*_dense_poisson_mixture(
            2.0 * table.intensity * tau / 2.0, p0.probabilities))
        np.testing.assert_array_equal(got.n_values, n)
        assert np.abs(got.probabilities - p).max() <= 1e-15


def _snapshot_mixtures(p0, model, taus):
    """(label, rates, weights) of the photocount law at each tau."""
    table = amplitude_table(model, p0.z_values)
    for tau in taus:
        t = tau / (2.0 * abs(table.c_constant) ** 2 * model.kappa)
        yield (f"{model.scenario.value}-tau{tau:g}",
               2.0 * model.kappa * table.intensity * t, p0.probabilities)


def _mixture_cases(max_taus):
    """fig2-fig5 at every snapshot time, the maximum superfluid at
    `max_taus`, and zero rates and zero weights interleaved between narrow
    and wide windows."""
    cases = []
    for name in ("fig2", "fig3", "fig4", "fig5"):
        cfg = parse_config(load_preset(name))
        cases += _snapshot_mixtures(initial_distribution(cfg),
                                    probe_model(cfg), cfg.snapshots)
    cases += _snapshot_mixtures(superfluid_atom_number(SPEC), max_model(),
                                max_taus)
    rates = [0.0, 3.0, 5e4, 0.0, 10.0, 2e3, 7.0, 0.0, 40.0, 300.0, 0.5, 1e5,
             0.0, 12.0]
    weights = np.array([1, 0, 2, 0, 2, 0, 2, 1, 2, 2, 2, 2, 1, 1]) / 18.0
    return cases + [("mixed", np.array(rates), weights)]


def test_poisson_mixture_equals_the_per_z_loop_bit_for_bit():
    for label, rates, weights in _mixture_cases((0.5, 5.0, 30.0)):
        got = poisson_mixture(rates, weights)
        n, p = poisson_mixture_per_z(rates, weights)
        assert got.n_values.tobytes() == n.tobytes(), label
        assert got.probabilities.tobytes() == p.tobytes(), label


def test_no_mixture_bit_depends_on_the_run_bound(monkeypatch):
    """Runs of one term, of 64 terms, of the default bound and of every
    window give the per-z loop's bits (the maximum superfluid only at
    tau = 0.5: one run of all its 2.8e5 terms is as far as this goes)."""
    cases = _mixture_cases((0.5,))
    want = [poisson_mixture_per_z(rates, weights) for _, rates, weights in
            cases]
    for bound in (1, 64, photostats._MIXTURE_TERMS, 1 << 30):
        monkeypatch.setattr(photostats, "_MIXTURE_TERMS", bound)
        for (label, rates, weights), (n, p) in zip(cases, want):
            got = poisson_mixture(rates, weights)
            assert got.n_values.tobytes() == n.tobytes(), (bound, label)
            assert got.probabilities.tobytes() == p.tobytes(), (bound, label)


def test_poisson_mixture_raises_on_a_short_truncation(monkeypatch):
    # truncating at the largest rate leaves a tail of ~0.27: an error, not
    # a renormalised law
    monkeypatch.setattr(photostats, "_START_SDS", 0.0)
    with pytest.raises(ValueError, match="weights sum to"):
        poisson_mixture(np.array([0.0, 1000.0]), np.array([0.25, 0.75]))


def test_poisson_mixture_rejects_short_weights():
    # the missing mass is nowhere on the n axis
    with pytest.raises(ValueError, match="weights sum to"):
        poisson_mixture(np.array([3.0, 40.0]), np.array([0.5, 0.4]))


def test_poisson_mixture_rejects_negative_rates():
    with pytest.raises(ValueError):
        poisson_mixture(np.array([-1.0]), np.array([1.0]))


def test_photon_distribution_normalization_guard():
    with pytest.raises(ValueError):
        PhotonDistribution(np.arange(2), np.array([0.7, 0.7]))


def test_cavity_photon_distribution_superfluid():
    p0 = superfluid_atom_number(SPEC)
    model = max_model()
    table = amplitude_table(model, p0.z_values)
    # the cavity photon number is the p(z) mixture of Poissons at |alpha_z|^2
    d = poisson_mixture(table.intensity, p0.probabilities)
    # <n> = |C|^2 <z^2> = |C|^2 (25 + 2500)
    assert d.mean == pytest.approx(abs(model.c_constant) ** 2 * 2525.0,
                                   rel=1e-6)
    assert d.fano > 1.0  # mixture of many coherent intensities


def test_cavity_photon_distribution_mott_is_coherent():
    p0 = mott_distribution(SPEC, Scenario.MAXIMUM)
    model = max_model()
    table = amplitude_table(model, p0.z_values)
    d = poisson_mixture(table.intensity, p0.probabilities)
    assert d.mandel_q == pytest.approx(0.0, abs=1e-6)
    assert d.mean == pytest.approx(2500.0 * abs(model.c_constant) ** 2,
                                   rel=1e-6)


def test_photocount_distribution_mean_growth():
    p0 = superfluid_atom_number(SPEC)
    model = max_model()
    table = amplitude_table(model, p0.z_values)
    for t in (0.001, 0.003):
        d = photocount_distribution(p0, table, 1.0, t)
        want = 2.0 * 1.0 * t * np.dot(table.intensity, p0.probabilities)
        assert d.mean == pytest.approx(want, rel=1e-8)
        assert d.fano >= 1.0 - 1e-9
    with pytest.raises(ValueError):
        photocount_distribution(p0, table, 1.0, -0.1)
    with pytest.raises(ValueError, match="zero mean"):
        photocount_distribution(p0, table, 1.0, 0.0).fano


def test_photocount_distribution_zero_time():
    p0 = superfluid_atom_number(SPEC)
    table = amplitude_table(max_model(), p0.z_values)
    d = photocount_distribution(p0, table, 1.0, 0.0)
    assert d.probabilities[0] == pytest.approx(1.0, abs=1e-12)


def test_conditional_photocount_narrows_after_conditioning():
    """Conditioning on a past record reduces the count uncertainty."""
    p0 = superfluid_atom_number(SPEC)
    model = max_model()
    table = amplitude_table(model, p0.z_values)
    dt = 0.002
    prior = photocount_distribution(p0, table, 1.0, dt)
    collapsed = closed_form_distribution(p0, table, 1.0, m=5000, t=2.0)
    # the counts in (2, 2 + dt] given the state reached at t = 2
    post = photocount_distribution(collapsed, table, 1.0, dt)
    assert post.fano < prior.fano
    assert post.fano >= 1.0 - 1e-9
