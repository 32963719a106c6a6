import numpy as np
import pytest
from scipy.stats import chi2_contingency, chisquare

from latticemc.geometry import LatticeSpec, Scenario, ZMeaning
from latticemc.optics import ProbeModel, amplitude_table
from latticemc.photostats import photocount_distribution
from latticemc.states import (ZDistribution, gaussian_approximation,
                              mott_distribution, superfluid_atom_number,
                              superfluid_difference)
from latticemc.trajectory import (ClassificationError, NumericalAbort,
                                  TrajectoryState, _basin_bounds, _stop_rows,
                                  classify_outcome,
                                  closed_form_distribution,
                                  conditional_photon_number, detect_peaks,
                                  exact_distribution, fwhm_of_peak, jump,
                                  mandel_q, mc_step, no_count_step,
                                  peak_collapse_width, predicted_widths,
                                  run_trajectory, width)

SPEC = LatticeSpec(100, 100, 50)


def max_model(kappa=1.0):
    return ProbeModel(Scenario.MAXIMUM, kappa=kappa, u10=1.0, a0=1.0)


def trans_model(z_p=50.0, kappa=1.0, u11=1.0, eta=1.0):
    return ProbeModel(Scenario.TRANSMISSION, kappa=kappa, u11=u11, eta=eta,
                      delta_p=z_p * u11)


def make_state(p0, model, **kw):
    table = amplitude_table(model, p0.z_values)
    return TrajectoryState(dist=p0, amplitudes=table, kappa=model.kappa, **kw)


def two_point_state(intensities, probs, kappa=1.0):
    """Minimal synthetic state with prescribed per-z intensities."""
    from latticemc.optics import AmplitudeTable
    z = np.arange(len(intensities))
    table = AmplitudeTable(z, np.sqrt(np.asarray(intensities, dtype=float)),
                           c_constant=1.0 + 0j)
    dist = ZDistribution(z, np.asarray(probs, dtype=float),
                         ZMeaning.ATOM_NUMBER_AT_K_SITES)
    return TrajectoryState(dist=dist, amplitudes=table, kappa=kappa)


# ---------------------------------------------------------------- updates


def test_no_count_uniform_intensity_is_identity():
    # if |alpha_z|^2 is constant on the support, p(z) is unchanged
    st = two_point_state([2.0, 2.0, 2.0], [0.2, 0.5, 0.3])
    out = no_count_step(st, 1.7)
    np.testing.assert_allclose(out.dist.probabilities, [0.2, 0.5, 0.3],
                               atol=1e-15)
    assert out.t == pytest.approx(1.7)
    assert out.m == 0


def test_no_count_favours_dark_components():
    st = make_state(superfluid_atom_number(SPEC), max_model())
    out = no_count_step(st, 0.5)
    ratio = out.dist.probabilities / st.dist.probabilities
    # the z = 0 component scatters nothing and must gain relative weight
    assert np.argmax(ratio) == 0
    assert np.all(np.diff(ratio[ratio > 0]) < 0)


def test_no_count_transmission_burns_hole_at_resonance():
    st = make_state(superfluid_atom_number(SPEC), trans_model(z_p=50.0))
    out = no_count_step(st, 0.35)  # tau' = 0.7
    ratio = out.dist.probabilities / st.dist.probabilities
    assert ratio[50] == ratio.min()
    assert ratio[45] > ratio[50]


def test_jump_reweights_by_intensity():
    st = two_point_state([1.0, 3.0], [0.5, 0.5])
    out = jump(st)
    np.testing.assert_allclose(out.dist.probabilities, [0.25, 0.75],
                               atol=1e-15)
    assert out.m == 1
    assert out.jump_times == (0.0,)


def test_jump_on_point_mass_is_identity():
    st = two_point_state([0.0, 2.0], [0.0, 1.0])
    out = jump(st)
    np.testing.assert_allclose(out.dist.probabilities, [0.0, 1.0], atol=1e-15)


def test_jump_on_dark_state_raises():
    st = two_point_state([0.0, 1.0], [1.0, 0.0])
    with pytest.raises(RuntimeError):
        jump(st)


def test_jump_pulls_transmission_towards_resonance():
    st = make_state(superfluid_atom_number(SPEC), trans_model(z_p=50.0))
    out = jump(st)
    before = np.dot(st.dist.probabilities, np.abs(st.dist.z_values - 50))
    after = np.dot(out.dist.probabilities, np.abs(out.dist.z_values - 50))
    assert after < before


def test_updates_commute():
    st = make_state(superfluid_atom_number(SPEC), max_model())
    a = jump(no_count_step(st, 0.3))
    b = no_count_step(jump(st), 0.3)
    np.testing.assert_allclose(a.dist.probabilities, b.dist.probabilities,
                               atol=1e-14)


def test_normalization_preserved_over_many_steps():
    st = two_point_state([0.5, 1.0, 2.0, 3.0, 4.0], [0.2] * 5)
    for k in range(10000):
        st = no_count_step(st, 1e-3)
        if k % 100 == 0:
            st = jump(st)
        assert abs(st.dist.probabilities.sum() - 1.0) < 1e-12


def test_mc_step_thresholding():
    st = make_state(superfluid_atom_number(SPEC), max_model())
    rate = float(np.dot(st.rates, st.dist.probabilities))
    dt = 0.05 / st.rates.max()
    _, jumped = mc_step(st, dt, u=rate * dt * 1.01)
    assert not jumped
    _, jumped = mc_step(st, dt, u=rate * dt * 0.99)
    assert jumped
    with pytest.raises(ValueError):
        mc_step(st, dt * 1.5, u=0.5)


def test_mc_step_dark_state_never_jumps():
    st = two_point_state([0.0, 4.0], [1.0, 0.0])
    for u in (0.0, 1e-12):
        _, jumped = mc_step(st, 1e-3, u=u)
        assert not jumped


def test_mc_step_jump_frequency():
    st = make_state(superfluid_atom_number(SPEC), max_model())
    rate = float(np.dot(st.rates, st.dist.probabilities))
    dt = 0.04 / st.rates.max()
    rng = np.random.default_rng(3)
    n = 10000
    jumps = sum(mc_step(st, dt, u=rng.random())[1] for _ in range(n))
    expect = rate * dt * n
    assert abs(jumps - expect) < 3 * np.sqrt(expect)


def test_amplitude_table_log_intensity():
    table = amplitude_table(max_model(), np.arange(5))
    lam = np.abs(table.alpha) ** 2
    assert np.array_equal(table.intensity, lam)
    assert table.log_intensity[0] == -np.inf
    assert np.array_equal(table.log_intensity[1:], np.log(lam[1:]))
    assert table.log_intensity is table.log_intensity  # computed once
    with pytest.raises(ValueError):
        table.intensity[0] = 1.0


def test_underflow_aborts():
    st = two_point_state([1.0, 2.0], [0.5, 0.5])
    with pytest.raises(NumericalAbort):
        no_count_step(st, 1e310)


# ------------------------------------------------------------- observables


def test_conditional_photon_number():
    st = two_point_state([1.0, 3.0], [0.5, 0.5])
    assert conditional_photon_number(st) == pytest.approx(2.0)


def test_mandel_q_values():
    assert mandel_q(two_point_state([0.0, 2.0], [0.0, 1.0])) == 0.0
    # intensities 0 and 2 with equal weight: var 1, mean 1
    assert mandel_q(two_point_state([0.0, 2.0], [0.5, 0.5])) == pytest.approx(1.0)
    rng = np.random.default_rng(4)
    for _ in range(50):
        lam = rng.uniform(0, 5, size=6)
        p = rng.dirichlet(np.ones(6))
        assert mandel_q(two_point_state(lam, p)) >= -1e-12


def test_width_examples():
    st = make_state(superfluid_atom_number(SPEC), max_model())
    assert width(st) == pytest.approx(5.0, abs=1e-9)
    assert width(two_point_state([1, 1], [1.0, 0.0])) == 0.0


def test_detect_peaks_and_fwhm():
    z = np.arange(7)
    p = np.array([0.0, 0.1, 0.3, 0.1, 0.05, 0.3, 0.15])
    p = p / p.sum()
    d = ZDistribution(z, p, ZMeaning.ATOM_NUMBER_AT_K_SITES)
    assert detect_peaks(d) == [2, 5]
    d2 = gaussian_approximation(50.0, 4.0, np.arange(101))
    assert detect_peaks(d2) == [50]
    # FWHM of a discrete Gaussian ~ 2 sqrt(2 ln2) sigma
    assert fwhm_of_peak(d2, 50) == pytest.approx(4.0 * 2 * np.sqrt(2 * np.log(2)),
                                                 rel=0.02)


def test_detect_peaks_plateau_counts_once():
    p = np.array([0.1, 0.3, 0.3, 0.1]) / 0.8
    d = ZDistribution(np.arange(4), p, ZMeaning.ATOM_NUMBER_AT_K_SITES)
    assert detect_peaks(d) == [1]


def _detect_peaks_reference(p, threshold):
    """Reference loop implementation, plateau-collapse pass included."""
    padded = np.concatenate(([-np.inf], p, [-np.inf]))
    peaks = [i for i in range(len(p))
             if padded[i + 1] > padded[i] and padded[i + 1] >= padded[i + 2]
             and p[i] >= threshold]
    out = []
    for i in peaks:
        if out and i == out[-1] + 1 and p[i] == p[out[-1]]:
            continue
        out.append(i)
    return out


def _basin_reference(p, peak_index):
    """Reference walk out from a peak while p falls strictly."""
    i = j = peak_index
    while i > 0 and p[i - 1] < p[i]:
        i -= 1
    while j < len(p) - 1 and p[j + 1] < p[j]:
        j += 1
    return i, j


def _peak_collapse_width_reference(z, p, peak_index):
    i, j = _basin_reference(p, peak_index)
    w, zz = p[i:j + 1], z[i:j + 1]
    total = w.sum()
    mean = np.dot(zz, w) / total
    var = np.dot((zz - mean) ** 2, w) / total
    return float(2.0 * np.sqrt(2.0 * np.log(2.0) * max(var, 0.0)))


def _tied_distributions(n_cases, seed):
    """Short p vectors drawn from few levels, so ties and plateaus abound."""
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        n = int(rng.integers(1, 12))
        levels = rng.integers(0, 4, size=n).astype(float)
        if levels.sum() == 0:
            levels[rng.integers(n)] = 1.0
        yield ZDistribution(np.arange(n) - n // 2, levels / levels.sum(),
                            ZMeaning.ATOM_NUMBER_AT_K_SITES)


def test_detect_peaks_matches_reference_loop():
    for d in _tied_distributions(3000, seed=41):
        p = d.probabilities
        # thresholds exactly at values p takes, and between them
        for threshold in (*np.unique(p)[:3], 0.0, 1e-3, 0.2):
            assert detect_peaks(d, threshold) == \
                _detect_peaks_reference(p, threshold)


def test_basin_bounds_match_reference_walk():
    for d in _tied_distributions(3000, seed=43):
        p = d.probabilities
        z = d.z_values.astype(float)
        starts = np.arange(len(p))
        first, last = _basin_bounds(p, starts)
        for k in starts:
            assert (first[k], last[k]) == _basin_reference(p, k)
            if p[k] > 0:  # the same sums, so bit-identical widths
                assert peak_collapse_width(d, k) == \
                    _peak_collapse_width_reference(z, p, k)


def _all_peaks_narrow_reference(dist, stop_fwhm, threshold):
    """The per-distribution stop check, as the per-stride sampler ran it."""
    if stop_fwhm <= 0:
        return False
    peaks = detect_peaks(dist, threshold)
    return bool(peaks) and all(peak_collapse_width(dist, i) < stop_fwhm
                               for i in peaks)


def _assert_stop_rows_match(dists, stop_fwhms, thresholds):
    p = np.array([d.probabilities for d in dists])
    z = dists[0].z_values.astype(float)
    seen = set()
    for stop_fwhm in stop_fwhms:
        for threshold in thresholds:
            with np.errstate(invalid="ignore"):  # empty basins at threshold 0
                got = _stop_rows(p, z, stop_fwhm, threshold)
                want = [_all_peaks_narrow_reference(d, stop_fwhm, threshold)
                        for d in dists]
            assert got.tolist() == want
            seen.update(want)
    return seen


def test_stop_rows_match_reference_on_tied_rows():
    by_length = {}
    for d in _tied_distributions(3000, seed=47):
        by_length.setdefault(len(d.z_values), []).append(d)
    seen = set()
    for dists in by_length.values():
        # 0.25 and 1/3 are values p takes; a peak at the threshold counts
        seen |= _assert_stop_rows_match(dists, (0.3, 1.0, 2.5),
                                        (0.0, 0.25, 1 / 3))
    assert seen == {False, True}


def test_stop_rows_match_reference_on_closed_form_posteriors():
    """Posteriors along fig3-like transmission and maximum-scenario runs."""
    seen = set()
    for model, max_tau, interval in ((trans_model(z_p=50.0), 2100.0, 2.0),
                                     (max_model(), 30.0, 0.025)):
        p0 = superfluid_atom_number(SPEC)
        table = amplitude_table(model, p0.z_values)
        for seed in range(3):
            rec = run_trajectory(p0, model, seed=[5, seed], max_tau=max_tau,
                                 stop_fwhm=0.0, sample_interval_tau=interval)
            dists = [closed_form_distribution(p0, table, model.kappa, s.m, s.t)
                     for s in rec.samples]
            seen |= _assert_stop_rows_match(dists, (0.05, 0.5, 2.0),
                                            (1e-3,))
    assert seen == {False, True}


def test_peak_collapse_width_point_mass_vanishes():
    d = mott_distribution(LatticeSpec(10, 10, 5), np.arange(11))
    assert peak_collapse_width(d, 5) == 0.0
    d2 = gaussian_approximation(50.0, 4.0, np.arange(101))
    assert peak_collapse_width(d2, 50) == pytest.approx(
        4.0 * 2 * np.sqrt(2 * np.log(2)), rel=0.02)


def test_predicted_widths_values():
    got = predicted_widths(Scenario.MAXIMUM, m=4000, tau=2 * np.log(2))
    assert got == pytest.approx(1.0)
    with pytest.warns(UserWarning):  # fwhm ~ kappa/u11: outside the regime
        got = predicted_widths(Scenario.TRANSMISSION, m=17, tau=14.6,
                               kappa_over_u11=1.0)
    assert got == pytest.approx(2 * (2 * np.log(2) / 14.6) ** 0.25)
    got = predicted_widths(Scenario.TRANSMISSION, m=39, tau=2006.9,
                           kappa_over_u11=1.0, delta_z=7.0)
    r2 = 49.0
    want = 7.0 * (1 + 1 / r2) * np.sqrt(2 * np.log(2) / 2006.9 * (1 + r2))
    assert got == pytest.approx(want)
    with pytest.raises(ValueError):
        predicted_widths(Scenario.MAXIMUM, m=1, tau=0.0)
    with pytest.raises(ValueError):
        predicted_widths(Scenario.TRANSMISSION, m=1, tau=1.0)


def test_predicted_widths_regime_warning():
    with pytest.warns(UserWarning):
        predicted_widths(Scenario.MAXIMUM, m=1, tau=0.5)


# ------------------------------------------------------ closed / exact form


def test_closed_form_matches_step_sequence():
    p0 = superfluid_atom_number(SPEC)
    model = max_model()
    st = make_state(p0, model)
    rng = np.random.default_rng(9)
    for _ in range(40):
        st = no_count_step(st, rng.uniform(1e-5, 3e-4))
        if rng.random() < 0.4:
            st = jump(st)
    direct = closed_form_distribution(p0, st.amplitudes, model.kappa,
                                      st.m, st.t)
    assert np.max(np.abs(direct.probabilities - st.dist.probabilities)) < 1e-12


def test_closed_form_t0_m0_is_initial():
    p0 = superfluid_atom_number(SPEC)
    table = amplitude_table(max_model(), p0.z_values)
    out = closed_form_distribution(p0, table, 1.0, 0, 0.0)
    np.testing.assert_allclose(out.probabilities, p0.probabilities, atol=1e-15)


def test_exact_distribution_reduces_to_closed_form_late():
    """With weak drive and late jumps the transient corrections vanish."""
    p0 = superfluid_atom_number(LatticeSpec(3, 2, 1))
    model = trans_model(z_p=2.0, eta=1e-4)
    jump_times = [16.0, 18.5]
    t_end = 20.0
    table = amplitude_table(model, p0.z_values)
    steady = closed_form_distribution(p0, table, model.kappa,
                                      len(jump_times), t_end)
    exact = exact_distribution(p0, model, jump_times, t_end)
    assert np.max(np.abs(exact.probabilities - steady.probabilities)) < 1e-6


# ------------------------------------------------------------ classification


def state_from_counts(p0, model, m, tau):
    table = amplitude_table(model, p0.z_values)
    c2 = abs(table.c_constant) ** 2
    t = tau / (2 * c2 * model.kappa)
    dist = closed_form_distribution(p0, table, model.kappa, m, t)
    return TrajectoryState(dist=dist, amplitudes=table, kappa=model.kappa,
                           m=m, t=t)


def test_classify_transmission_singlet():
    p0 = superfluid_atom_number(SPEC)
    st = state_from_counts(p0, trans_model(z_p=50.0), m=17, tau=14.6)
    out = classify_outcome(st, trans_model(z_p=50.0))
    assert out.kind == "singlet"
    assert out.z1 == 50


def test_classify_transmission_centered_doublet():
    p0 = superfluid_atom_number(SPEC)
    model = trans_model(z_p=50.0)
    st = state_from_counts(p0, model, m=73, tau=2017.6)
    out = classify_outcome(st, model)
    assert out.kind == "doublet"
    dz_pred = np.sqrt(2017.6 / 73 - 1)
    assert out.z1 - out.z2 == pytest.approx(2 * dz_pred, abs=2.0)
    assert out.z1 + out.z2 == pytest.approx(100, abs=1.5)
    # equidistant satellites on a symmetric p0: nearly equal weights
    assert out.component_weights[0] == pytest.approx(out.component_weights[1],
                                                     abs=0.2)


def test_classify_transmission_offset_doublet_unequal_wings():
    p0 = superfluid_atom_number(SPEC)
    model = trans_model(z_p=60.0)
    st = state_from_counts(p0, model, m=39, tau=2006.9)
    out = classify_outcome(st, model)
    assert out.kind == "doublet"
    assert (out.z1, out.z2) == (67, 53)
    # the satellite nearer the p0 centre carries more weight
    assert out.component_weights[1] > out.component_weights[0]
    assert out.phase_phi == pytest.approx(-np.arctan(out.delta_z), rel=1e-12)


def test_classify_minimum_symmetric_doublet():
    spec = LatticeSpec(100, 100, 100)
    p0 = superfluid_difference(spec)
    model = ProbeModel(Scenario.MINIMUM, kappa=1.0, u10=1.0, a0=1.0)
    st = state_from_counts(p0, model, m=800, tau=8.0)
    out = classify_outcome(st, model)
    assert out.kind == "doublet"
    assert out.z1 == -out.z2 > 0
    assert out.phase_phi == pytest.approx(np.pi / 2)
    assert out.component_weights[0] == pytest.approx(0.5, abs=1e-9)


def test_classify_maximum_singlet():
    p0 = superfluid_atom_number(SPEC)
    model = max_model()
    st = state_from_counts(p0, model, m=20000, tau=8.0)
    out = classify_outcome(st, model)
    assert out.kind == "singlet"
    assert abs(out.z1 - np.sqrt(20000 / 8.0)) <= 1.0


def test_classify_rejects_multi_peak_state():
    model = trans_model(z_p=50.0)
    z = np.arange(101)
    p = np.full(101, 1e-4)
    p[[20, 50, 80]] = 0.2  # three separated peaks
    p = p / p.sum()
    dist = ZDistribution(z, p, ZMeaning.ATOM_NUMBER_AT_K_SITES)
    table = amplitude_table(model, z)
    st = TrajectoryState(dist=dist, amplitudes=table, kappa=1.0, m=5, t=1.0)
    with pytest.raises(ClassificationError):
        classify_outcome(st, model)


# ------------------------------------------------------------ full runs


def test_run_trajectory_deterministic():
    p0 = superfluid_atom_number(SPEC)
    model = max_model()
    a = run_trajectory(p0, model, seed=[7, 0], max_tau=4.0, stop_fwhm=0.0)
    b = run_trajectory(p0, model, seed=[7, 0], max_tau=4.0, stop_fwhm=0.0)
    assert [s.m for s in a.samples] == [s.m for s in b.samples]
    np.testing.assert_array_equal(a.final_state.dist.probabilities,
                                  b.final_state.dist.probabilities)
    c = run_trajectory(p0, model, seed=[7, 1], max_tau=4.0, stop_fwhm=0.0)
    assert [s.m for s in c.samples] != [s.m for s in a.samples]


def test_run_trajectory_matches_closed_form():
    p0 = superfluid_atom_number(SPEC)
    model = max_model()
    rec = run_trajectory(p0, model, seed=42, max_tau=6.0, stop_fwhm=0.0)
    st = rec.final_state
    direct = closed_form_distribution(p0, st.amplitudes, model.kappa,
                                      st.m, st.t)
    assert np.max(np.abs(direct.probabilities
                         - st.dist.probabilities)) < 1e-9


def test_run_trajectory_mott_counts_are_poissonian():
    """A point-mass p0 stays frozen and the counts are plain Poisson."""
    spec = LatticeSpec(100, 100, 50)
    p0 = mott_distribution(spec, np.arange(101))
    model = max_model()
    tau = 2.0
    lam_tau = tau * 50**2  # mean counts: rate 2k|C|^2 z^2 over t = tau * z^2
    ms = []
    for i in range(300):
        rec = run_trajectory(p0, model, seed=[11, i], max_tau=tau,
                             stop_fwhm=0.0, sample_interval_tau=0.25)
        assert rec.final_state.dist.probabilities[50] == 1.0
        assert rec.outcome.kind == "singlet" and rec.outcome.z1 == 50
        ms.append(rec.final_state.m)
    mean = np.mean(ms)
    assert abs(mean - lam_tau) < 3 * np.sqrt(lam_tau / 300)
    # Poisson: variance equals mean (allow wide statistical tolerance)
    assert np.var(ms) == pytest.approx(lam_tau, rel=0.25)


def test_run_trajectory_stop_rule_halts_early():
    p0 = superfluid_atom_number(SPEC)
    model = max_model()
    rec = run_trajectory(p0, model, seed=5, max_tau=30.0, stop_fwhm=0.5,
                         sample_interval_tau=0.1)
    assert rec.final_state.tau < 30.0 - 1e-9
    peaks = detect_peaks(rec.final_state.dist)
    assert all(peak_collapse_width(rec.final_state.dist, i) < 0.5
               for i in peaks)


def test_run_trajectory_snapshots():
    p0 = superfluid_atom_number(SPEC)
    model = trans_model(z_p=50.0)
    rec = run_trajectory(p0, model, seed=2, max_tau=10.0, stop_fwhm=0.0,
                         snapshot_taus=(0.0, 0.7, 10.0))
    assert set(rec.snapshots) == {0.0, 0.7, 10.0}
    np.testing.assert_allclose(rec.snapshots[0.0].probabilities,
                               p0.probabilities, atol=1e-15)


def test_run_trajectory_one_stride_per_snapshot_on_fig2_grid():
    # fig2's even grid and snapshots hold 0.7 and 14.6 each twice, 1e-16
    # apart; they merge into one stride at the snapshot's own tau
    p0 = superfluid_atom_number(SPEC)
    snaps = (0.0, 0.7, 1.1, 14.6)
    rec = run_trajectory(p0, trans_model(z_p=50.0), seed=[11, 0], max_tau=40.0,
                         stop_fwhm=0.0, sample_interval_tau=0.1,
                         snapshot_taus=snaps)
    taus = np.array([s.tau for s in rec.samples])
    assert len(taus) == 401
    assert np.count_nonzero(np.isclose(taus, 0.7)) == 1
    assert np.count_nonzero(np.isclose(taus, 14.6)) == 1
    assert set(rec.snapshot_strides) == set(rec.snapshots) == set(snaps)
    for tau, k in rec.snapshot_strides.items():
        assert k == np.flatnonzero(np.isclose(tau, taus))[0]
        assert rec.samples[k].tau == pytest.approx(tau, rel=1e-15)
        np.testing.assert_array_equal(
            rec.snapshots[tau].probabilities,
            closed_form_distribution(p0, rec.final_state.amplitudes, 1.0,
                                     rec.samples[k].m,
                                     rec.samples[k].t).probabilities)
    assert rec.snapshot_strides[0.0] == 0


def test_run_trajectory_snapshot_strides_stop_with_the_run():
    p0 = superfluid_atom_number(SPEC)
    rec = run_trajectory(p0, max_model(), seed=5, max_tau=30.0, stop_fwhm=0.5,
                         sample_interval_tau=0.1, snapshot_taus=(0.5, 29.0))
    assert rec.final_state.tau < 29.0
    assert set(rec.snapshot_strides) == set(rec.snapshots) == {0.5}
    k = rec.snapshot_strides[0.5]
    assert rec.samples[k].tau == pytest.approx(0.5)


def test_run_trajectory_validation():
    p0 = superfluid_atom_number(SPEC)
    with pytest.raises(ValueError):
        run_trajectory(p0, max_model(), seed=1, max_tau=0.0)


def test_run_trajectory_stops_at_first_narrow_stride():
    # past the first block of strides, so the block hand-over is covered
    p0 = superfluid_atom_number(SPEC)
    model = max_model()
    rec = run_trajectory(p0, model, seed=5, max_tau=30.0, stop_fwhm=0.5,
                         sample_interval_tau=0.01)
    table = rec.final_state.amplitudes
    narrow = [_all_peaks_narrow_reference(
        closed_form_distribution(p0, table, model.kappa, s.m, s.t), 0.5,
        1e-3) for s in rec.samples]
    assert len(rec.samples) > 200
    assert narrow[-1] and not any(narrow[1:-1])


def _per_stride_reference(p0, model, seed, taus):
    """The sampler the latent-z one replaced: each stride's count is drawn
    from the mixture of Poissonians of the posterior reached so far."""
    rng = np.random.default_rng(seed)
    table = amplitude_table(model, p0.z_values)
    t = taus / (2.0 * abs(table.c_constant) ** 2 * model.kappa)
    rates = 2.0 * model.kappa * table.intensity
    m = [0]
    for k in range(1, len(t)):
        p = closed_form_distribution(p0, table, model.kappa, m[-1],
                                     t[k - 1]).probabilities
        z = np.searchsorted(np.cumsum(p), rng.random() * p.sum(), "right")
        m.append(m[-1] + int(rng.poisson(rates[z] * (t[k] - t[k - 1]))))
    final = closed_form_distribution(p0, table, model.kappa, m[-1], t[-1])
    return m, classify_outcome(TrajectoryState(final, table, model.kappa,
                                               m[-1], t[-1]), model)


def _two_sample_p(a, b, min_count=20):
    """Chi-square p value that two samples of labels share one law.

    Labels seen fewer than min_count times in both samples together are
    pooled into one cell.
    """
    labels, counts = np.unique(np.concatenate([a, b]), return_counts=True)
    rare = labels[counts < min_count]
    cells = [np.where(np.isin(x, rare), rare.min(initial=-1) - 1, x)
             for x in (a, b)]
    keys = np.unique(np.concatenate(cells))
    table = [[np.count_nonzero(c == k) for k in keys] for c in cells]
    return chi2_contingency(table).pvalue


@pytest.mark.statistical
def test_latent_z_sampler_matches_per_stride_sampler():
    """Joint law of (m(0.5), m(1.5)) and of the outcome, 2000 runs each."""
    p0 = superfluid_atom_number(LatticeSpec(6, 6, 3))
    model = max_model()
    taus = np.linspace(0.0, 1.5, 31)
    new, old = [], []
    for i in range(2000):
        rec = run_trajectory(p0, model, seed=[61, i], max_tau=1.5,
                             stop_fwhm=0.0, sample_interval_tau=0.05)
        new.append((rec.samples[10].m, rec.samples[-1].m, rec.outcome.z1))
        m, outcome = _per_stride_reference(p0, model, [62, i], taus)
        old.append((m[10], m[-1], outcome.z1))
    np.testing.assert_allclose([s.tau for s in rec.samples], taus,
                               rtol=1e-15)
    new, old = np.array(new), np.array(old)
    both = np.concatenate([new, old])
    # joint cells: pooled quintiles of m(0.5) and of the later increment
    edges1 = np.unique(np.quantile(both[:, 0], [0.2, 0.4, 0.6, 0.8]))
    edges2 = np.unique(np.quantile(both[:, 1] - both[:, 0],
                                   [0.2, 0.4, 0.6, 0.8]))

    def cells(x):
        return (10 * np.searchsorted(edges1, x[:, 0], side="right")
                + np.searchsorted(edges2, x[:, 1] - x[:, 0], side="right"))

    assert _two_sample_p(cells(new), cells(old)) > 0.01
    assert _two_sample_p(new[:, 2], old[:, 2]) > 0.01
    assert len(np.unique(new[:, 2])) >= 4


@pytest.mark.statistical
def test_latent_z_final_counts_follow_photocount_distribution():
    p0 = superfluid_atom_number(LatticeSpec(6, 6, 3))
    model = max_model()
    tau = 0.5
    ms = np.array([run_trajectory(p0, model, seed=[71, i], max_tau=tau,
                                  stop_fwhm=0.0, sample_interval_tau=tau / 4
                                  ).final_state.m for i in range(20000)])
    table = amplitude_table(model, p0.z_values)
    t = tau / (2.0 * abs(table.c_constant) ** 2 * model.kappa)
    theory = photocount_distribution(p0, table, model.kappa, t).probabilities
    expected = theory * len(ms)
    observed = np.bincount(ms, minlength=len(expected)).astype(float)
    assert len(observed) == len(expected)
    # pool the tail into the last cell with at least 5 expected
    cut = int(np.flatnonzero(expected >= 5)[-1])
    observed[cut] += observed[cut + 1:].sum()
    expected[cut] += expected[cut + 1:].sum()
    keep = expected[:cut + 1] >= 5
    obs, exp = observed[:cut + 1], expected[:cut + 1]
    obs = np.append(obs[keep], obs[~keep].sum())
    exp = np.append(exp[keep], exp[~keep].sum())
    if exp[-1] == 0:
        obs, exp = obs[:-1], exp[:-1]
    assert chisquare(obs, exp).pvalue > 0.01


def test_run_trajectory_initial_state_never_stops_the_run():
    # a Mott point mass is collapsed from the start; the run still takes
    # its first stride, as the per-stride sampler did
    p0 = mott_distribution(LatticeSpec(100, 100, 50), np.arange(101))
    rec = run_trajectory(p0, max_model(), seed=3, max_tau=2.0, stop_fwhm=0.5)
    assert len(rec.samples) == 2
    assert rec.samples[1].m > 0
