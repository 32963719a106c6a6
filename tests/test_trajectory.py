import dataclasses
import math
import types

import numpy as np
import pytest
from scipy.stats import chi2_contingency, chisquare

from latticemc import trajectory
from latticemc.cli import (initial_distribution, load_preset, parse_config,
                           probe_model)
from latticemc.geometry import LatticeSpec, Scenario
from latticemc.optics import (ProbeModel, amplitude_table,
                              prefactor_exponent_exact, transient_amplitude)
from latticemc.photostats import photocount_distribution, poisson_mixture
from latticemc.states import (ZDistribution, mott_distribution,
                              superfluid_atom_number, superfluid_difference)
from latticemc.trajectory import (ClassificationError, FinalState,
                                  NumericalAbort, _basin_bounds, _may_stop,
                                  _peak_widths, _peaks, _stop_rows,
                                  classify_outcome, closed_form_distribution,
                                  exact_distribution, run_trajectory)
from reference import (TrajectoryState, fwhm_of_peak, gaussian_approximation,
                       jump, log_intensity, no_count_step, predicted_widths)

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
    dist = ZDistribution(z, np.asarray(probs, dtype=float))
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


def test_amplitude_table_log_intensity():
    table = amplitude_table(max_model(), np.arange(5))
    lam = np.abs(table.alpha) ** 2
    assert np.array_equal(table.intensity, lam)
    assert log_intensity(table)[0] == -np.inf
    assert np.array_equal(log_intensity(table)[1:], np.log(lam[1:]))
    assert table.intensity is table.intensity  # computed once
    with pytest.raises(ValueError):
        table.intensity[0] = 1.0


def test_underflow_aborts():
    st = two_point_state([1.0, 2.0], [0.5, 0.5])
    with pytest.raises(NumericalAbort):
        no_count_step(st, 1e310)


# ------------------------------------------------------------- observables


def test_mandel_q_values():
    """The photon number of a p(z) mixture of coherent components has
    Mandel Q = Var_z(|alpha_z|^2) / <|alpha_z|^2>."""
    def q(lam, p):
        return poisson_mixture(np.asarray(lam), np.asarray(p)).mandel_q

    assert q([0.0, 2.0], [0.0, 1.0]) == pytest.approx(0.0, abs=1e-9)
    # intensities 0 and 2 with equal weight: var 1, mean 1
    assert q([0.0, 2.0], [0.5, 0.5]) == pytest.approx(1.0, abs=1e-9)
    rng = np.random.default_rng(4)
    for _ in range(50):
        lam = rng.uniform(0, 5, size=6)
        p = rng.dirichlet(np.ones(6))
        mean = lam @ p
        assert q(lam, p) == pytest.approx((lam**2 @ p - mean**2) / mean,
                                          abs=1e-8)


def test_width_examples():
    assert superfluid_atom_number(SPEC).std == pytest.approx(5.0, abs=1e-9)
    assert two_point_state([1, 1], [1.0, 0.0]).dist.std == 0.0


def detect_peaks(dist, threshold=1e-3):
    """The peaks of one distribution, as `classify_outcome` finds them."""
    return _peaks(dist.probabilities[None], threshold)[1].tolist()


def test_detect_peaks_and_fwhm():
    z = np.arange(7)
    p = np.array([0.0, 0.1, 0.3, 0.1, 0.05, 0.3, 0.15])
    p = p / p.sum()
    d = ZDistribution(z, p)
    assert detect_peaks(d) == [2, 5]
    d2 = gaussian_approximation(50.0, 4.0, np.arange(101))
    assert detect_peaks(d2) == [50]
    # FWHM of a discrete Gaussian ~ 2 sqrt(2 ln2) sigma
    assert fwhm_of_peak(d2, 50) == pytest.approx(4.0 * 2 * np.sqrt(2 * np.log(2)),
                                                 rel=0.02)


def test_detect_peaks_plateau_counts_once():
    p = np.array([0.1, 0.3, 0.3, 0.1]) / 0.8
    d = ZDistribution(np.arange(4), p)
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
        yield ZDistribution(np.arange(n) - n // 2, levels / levels.sum())


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
        with np.errstate(invalid="ignore"):  # empty basins at threshold 0
            _, peaks, fwhm = _peak_widths(p[None], z, 0.0)
        for k, width in zip(peaks, fwhm):
            if p[k] > 0:  # masked sums against the slice's, to rounding
                assert width == pytest.approx(
                    _peak_collapse_width_reference(z, p, k),
                    rel=1e-12, abs=1e-12)


def _all_peaks_narrow_reference(dist, stop_fwhm, threshold):
    """The per-distribution stop check, as the per-stride sampler ran it."""
    if stop_fwhm <= 0:
        return False
    z, p = dist.z_values.astype(float), dist.probabilities
    peaks = _detect_peaks_reference(p, threshold)
    return bool(peaks) and all(
        _peak_collapse_width_reference(z, p, i) < stop_fwhm for i in peaks)


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


def _basin_variance(p, z):
    """Variance of the basin of p's first argmax."""
    i, j = _basin_reference(p, int(np.argmax(p)))
    w, zz = p[i:j + 1], z[i:j + 1]
    mean = w @ zz / w.sum()
    return (zz - mean) ** 2 @ w / w.sum()


def _gaussian_row(n, centre, sigma):
    w = np.exp(-(np.arange(n) - centre) ** 2 / (2.0 * sigma**2))
    return w / w.sum()


def _rows_at_variance(var, z, rng):
    """One-peak rows whose basin variance on grid z is var (to rounding).

    A two-point basin [f, 1 - f] beside a zero, across the least spacing d,
    where the bound d^2 f (1 - f) of `_may_stop` is attained, and Gaussian
    basins about off-grid centres whose width is found by bisection.
    """
    rows, n = [], len(z)
    gaps = np.diff(z)
    k = int(rng.choice(np.flatnonzero(gaps[1:-1] == gaps.min()))) + 1
    if var < gaps[k] ** 2 / 4:
        f = (1.0 + np.sqrt(1.0 - 4.0 * var / gaps[k] ** 2)) / 2.0
        row = np.zeros(n)
        row[k], row[k + 1] = f, 1.0 - f
        rows.append(row)
    for centre in n / 2 + rng.uniform(-0.5, 0.5, size=4):
        lo, hi = 1e-3, float(n)
        for _ in range(100):
            mid = (lo + hi) / 2
            if _basin_variance(_gaussian_row(n, centre, mid), z) < var:
                lo = mid
            else:
                hi = mid
        rows.append(_gaussian_row(n, centre, lo))
    return rows


def _broad_rows(n, rng, count):
    """Strictly unimodal basins whose peak holds less than a quarter, some
    narrow enough to stop at stop_fwhm 3 on a step-1 grid."""
    rows = []
    while len(rows) < count:
        size = int(rng.integers(5, 9))
        head = np.sort(rng.uniform(0.2, 0.25, 3))[::-1]
        tail = np.sort(rng.dirichlet(np.ones(size - 3)))[::-1]
        w = np.concatenate([head, tail * (1.0 - head.sum())])
        if not (np.diff(w) < 0).all():
            continue
        # falling outward both ways: the peak, then left, right, left, ...
        offsets = np.array([(i + 1) // 2 * (-1) ** i for i in range(size)])
        row = np.zeros(n)
        row[int(rng.integers(size // 2 + 1, n - 1 - (size - 1) // 2))
            + offsets] = w
        rows.append(row)
    return rows


def _log_rows(rows, rng, scale):
    """Log weights of the rows, each shifted by its own random offset."""
    with np.errstate(divide="ignore"):
        logw = np.log(np.array(rows))
    return logw + rng.uniform(-scale, scale, size=(len(logw), 1))


def _near_tie_rows(n, rng, count):
    """Rows whose top log weight has a neighbour 0, 1e-17, 1e-12, 1e-9 or
    2e-9 below it, one side or both, amid -inf (dark) entries and small
    tails, at magnitudes up to 1e6 where a gap of 1e-12 rounds to 0."""
    rows = []
    for _ in range(count):
        row = np.where(rng.random(n) < 0.5, -np.inf, rng.uniform(-60, -20, n))
        k = int(rng.integers(n))
        top = float(rng.choice([0.0, 1.5, -3e3, 1e6]))
        row[k] = top
        for side in ([-1], [1], [-1, 1])[rng.integers(3)]:
            if 0 <= k + side < n:
                row[k + side] = top - rng.choice([0.0, 1e-17, 1e-12, 1e-9,
                                                  2e-9])
        rows.append(row)
    return np.array(rows)


def _symmetric_rows(z, rng, count):
    """Minimum-scenario log weights, even in z: a binomial prior times the
    closed-form factor at random (m, t), some exactly symmetric and some
    as the closed form rounds them."""
    from scipy.stats import binom
    n = len(z) - 1
    log_p0 = binom.logpmf(np.arange(n + 1), n, 0.5)
    lam = z.astype(float) ** 2
    with np.errstate(divide="ignore"):
        log_lam = np.log(lam)
    rows = []
    for _ in range(count):
        m, t = int(rng.integers(1, 400)), rng.uniform(0.1, 30.0)
        row = log_p0 + m * log_lam - t * lam
        rows += [row, np.maximum(row, row[::-1])]
    return np.array(rows)


def _product_rows(n, rng):
    """Log weights from the [1, m, t] product, their slack and the exact
    posteriors, on tables with a dark z and priors with zeros.

    Per count m in 0..1e5, intensities e^(+-10 + eps (j - 6)) put the peak
    of m log lam - lam t at a random grid point for t = m / lam*, with
    m eps^2 from 0.05 (broad) to 300 (a point mass), eps <= 1; logw reaches
    +-1e6.
    """
    from latticemc.optics import AmplitudeTable
    kappa = 0.5
    out = []
    for m in (0, 1, 3, 30, 1000, 100_000):
        for width in (0.05, 1.0, 10.0, 300.0):
            for base in (10.0, -10.0):
                eps = min(np.sqrt(width / max(m, 1)), 1.0)
                lam = np.exp(base + eps * (np.arange(n) - 6.0))
                lam[rng.integers(n)] = 0.0  # a dark z
                table = AmplitudeTable(np.arange(n), np.sqrt(lam), 1.0 + 0j)
                p = rng.uniform(0.1, 1.0, n) * (rng.random(n) < 0.7)
                p[rng.choice(np.flatnonzero(lam))] += 1.0  # not all dark or 0
                p /= p.sum()
                peak = np.exp(base + eps * (rng.uniform(-2.0, 13.0, 40) - 6.0))
                t = (np.maximum(m, rng.uniform(0.0, 3.0, 40))
                     / (2.0 * kappa * peak))
                mm = np.full(len(t), m)
                rows = np.column_stack([np.ones(len(t)), mm, t])
                operands, bound = trajectory._log_weight_operands(p, table,
                                                                  kappa)
                out.append((rows @ operands, rows @ bound,
                            trajectory._posteriors(p, table, kappa, mm, t)))
    return [np.concatenate(parts) for parts in zip(*out)]


def test_may_stop_never_rejects_a_row_stop_rows_accepts():
    """`_may_stop` on log weights is a necessary condition for `_stop_rows`
    on their posterior: tie-heavy rows (plateaus, equal neighbours, single
    points, -inf where p is 0), basins at variance s^2 (1 +- 1e-6) for
    s = stop_fwhm / (2 sqrt(2 ln 2)), broad basins whose peak holds less
    than a quarter, neighbours within 1e-9 of the top, and symmetric
    minimum-scenario rows, on grids of steps 1, 2 and alternately 2 and 1,
    at thresholds up to one no value reaches, with log offsets up to 1e6;
    and rows of the [1, m, t] product with their rounding slack, with dark
    and zero-prior z and |logw| up to 1e6."""
    rng = np.random.default_rng(53)
    tied = {}
    for d in _tied_distributions(3000, seed=59):
        tied.setdefault(len(d.z_values), []).append(d.probabilities)
    broad = _broad_rows(12, rng, 300)
    seen, n_checked = set(), 0
    seen_product = set()
    grids = (np.arange(12) - 6, 2 * (np.arange(12) - 6),
             np.cumsum([0] + [2, 1] * 5 + [2]) - 8)  # steps 1, 2 and mixed
    log_rng = np.random.default_rng(67)  # offsets and log-weight rows
    symmetric = _symmetric_rows(2 * np.arange(-10, 11), log_rng, 200)
    # their own RNG, so the other rows draw as before
    product_logw, slack, product_p = _product_rows(
        12, np.random.default_rng(71))
    assert (slack > 0).all()
    real = product_logw[product_logw > -1e299]
    assert real.max() > 5e5 and real.min() < -5e5
    for grid in grids:
        for stop_fwhm in (0.01, 0.5, 1.5, 3.0):
            s2 = (stop_fwhm / (2.0 * np.sqrt(2.0 * np.log(2.0)))) ** 2
            tight = [row for rel in (1 - 1e-6, 1 + 1e-6)
                     for row in _rows_at_variance(s2 * rel, grid, rng)]
            cases = [(_log_rows(rows, log_rng, scale), grid, 0.0, None)
                     for rows in (*tied.values(), tight, broad)
                     for scale in (0.0, 1e3, 1e6)]
            cases += [(_near_tie_rows(12, log_rng, 500), grid, 0.0, None),
                      (symmetric, 2 * np.arange(-10, 11), 0.0, None),
                      (product_logw, grid, slack, product_p)]
            for logw, z, row_slack, p in cases:
                z = z[:logw.shape[1]]
                with np.errstate(invalid="ignore"):  # empty basins
                    if p is None:
                        p = trajectory._reweighted(np.ones(logw.shape[1]),
                                                   logw)
                    # values p takes, and above every value of the broad rows
                    for threshold in (0.0, 1e-3, 0.25, 1 / 3, 0.3):
                        may = _may_stop(logw, z, stop_fwhm, threshold,
                                        row_slack)
                        stop = _stop_rows(p, z, stop_fwhm, threshold)
                        assert not (stop & ~may).any()
                        pairs = set(zip(stop.tolist(), may.tolist()))
                        seen |= pairs
                        if logw is product_logw:
                            seen_product |= pairs
                        n_checked += len(p)
            # the bound is attained on a two-point basin, so it is sharp
            if s2 * 1.00001 < np.diff(grid).min() ** 2 / 4:
                row = _rows_at_variance(s2 * 1.00001, grid, rng)[0]
                assert not _may_stop(_log_rows([row], log_rng, 1e3), grid,
                                     stop_fwhm)[0]
    assert n_checked > 12 * 5 * 3 * 3000
    assert seen == seen_product == {(True, True), (False, True),
                                    (False, False)}


def test_may_stop_passes_a_neighbour_that_ties_after_the_exponential():
    """1e-17 below the top, p ties: the left point is the one peak, a point
    mass, so the row stops at any stop_fwhm, though the ratio bound would
    reject it.  1e-9 below, p does not tie and the bound decides."""
    z = np.arange(4)
    for gap, stops in ((1e-17, True), (1e-9, False)):
        logw = np.array([[-np.inf, -gap, 0.0, -np.inf]])
        p = trajectory._reweighted(np.ones(4), logw)
        assert bool(p[0, 1] == p[0, 2]) is stops
        assert bool(_stop_rows(p, z, 0.5, 1e-3)[0]) is stops
        assert bool(_may_stop(logw, z, 0.5)[0]) is stops


def test_reweighted_row_subset_equals_block_subset():
    """The `_posteriors` of some (m, t) rows are bit for bit those rows of
    the block's, as the stop check takes them on the prefiltered rows only."""
    cfg = parse_config(load_preset("fig3"))
    p0, model = initial_distribution(cfg), probe_model(cfg)
    table = amplitude_table(model, p0.z_values)
    rng = np.random.default_rng(61)
    m = np.cumsum(rng.poisson(3.0, size=128))
    t = np.cumsum(rng.uniform(0.0, 2.0, size=128))
    block = trajectory._posteriors(p0.probabilities, table, model.kappa, m, t)
    for rows in (np.arange(128), np.array([0]), np.array([127]),
                 np.sort(rng.choice(128, size=17, replace=False)),
                 np.array([5, 6, 7, 100])):
        sub = trajectory._posteriors(p0.probabilities, table, model.kappa,
                                     m[rows], t[rows])
        assert sub.tobytes() == block[rows].tobytes()


# the minimum scenario's z (the odd-even difference) runs in steps of 2
_SCENARIO_CONFIG = """\
scenario = {scenario}
n_atoms = 100
n_sites = 100
n_illuminated = {n_illuminated}
kappa = 1.0
drive_scale = 1.0
initial_state = superfluid
seed = 0
max_tau = 30
stop_fwhm = {stop_fwhm}
sample_interval_tau = 0.05
snapshots = 0.5,5
"""


def _run_summary(p0, model, cfg, seed):
    try:
        rec = run_trajectory(p0, model, seed=seed, max_tau=cfg.max_tau,
                             stop_fwhm=cfg.stop_fwhm,
                             sample_interval_tau=cfg.sample_interval_tau,
                             snapshot_taus=cfg.snapshots)
    except ClassificationError as exc:
        return repr(exc)
    return (rec.samples, rec.outcome, rec.snapshot_strides,
            {tau: d.probabilities.tolist() for tau, d in rec.snapshots.items()},
            rec.final_state.m, rec.final_state.t,
            rec.final_state.dist.probabilities.tolist())


def test_may_stop_leaves_records_unchanged(monkeypatch):
    """Records equal those with `_stop_rows` run on every stride: fig2-fig5,
    a maximum- and a minimum-scenario config (step-2 grid), 3 seeds each."""
    cases = [parse_config(load_preset(name))
             for name in ("fig2", "fig3", "fig4", "fig5")]
    cases += [parse_config(_SCENARIO_CONFIG.format(
        scenario=scenario, n_illuminated=n_illuminated, stop_fwhm=stop_fwhm))
        for scenario, n_illuminated, stop_fwhm in (("maximum", 50, 0.3),
                                                   ("minimum", 100, 0.4))]
    cases = [(cfg, initial_distribution(cfg), probe_model(cfg))
             for cfg in cases]
    seeds = [[seed, i] for seed in (5, 6, 7) for i in range(4)]

    def summaries():
        return [[_run_summary(p0, model, cfg, seed) for seed in seeds]
                for cfg, p0, model in cases]

    filtered = summaries()
    monkeypatch.setattr(trajectory, "_may_stop",
                        lambda p, *args: np.ones(len(p), dtype=bool))
    assert summaries() == filtered
    # the stop check fired in every config, and the taxonomy failed somewhere
    for (cfg, _, _), runs in zip(cases, filtered):
        assert any(not isinstance(r, str) and r[0][-1].tau < cfg.max_tau
                   for r in runs)
    assert any(isinstance(r, str) for runs in filtered for r in runs)


def test_may_stop_allows_for_the_slack():
    """Product rows within `slack` of the exact log weights.  A neighbour
    2e-9 below the top can tie it exactly, and a top point mass 1e-13 below
    the argmax can be the larger; each row stops on its exact posterior,
    and only the slack makes `_may_stop` pass it."""
    cases = (  # exact logw, product logw, slack, stop_fwhm, threshold
        ([-np.inf, -1e-17, 0.0, -np.inf], [-np.inf, -1e-9 - 1e-17, 1e-9,
                                            -np.inf], 1e-9, 0.5, 1e-3),
        ([-0.1, -1e-13, -0.1, -np.inf, 0.0], [-0.1, 0.0, -0.1, -np.inf,
                                              -1e-13], 1e-13, 0.5, None))
    for exact, product, slack, stop_fwhm, threshold in cases:
        exact, product = np.array([exact]), np.array([product])
        p = trajectory._reweighted(np.ones(exact.shape[1]), exact)
        threshold = p[0, -1] if threshold is None else threshold
        z = np.arange(exact.shape[1])
        assert _stop_rows(p, z, stop_fwhm, threshold)[0]
        assert _may_stop(product, z, stop_fwhm, threshold, slack)[0]
        assert not _may_stop(product, z, stop_fwhm, threshold, 0.0)[0]


def _record_summary(rec):
    return (rec.m.tobytes(), rec.m.dtype, rec.t.tobytes(), rec.final_state.m,
            rec.final_state.t, rec.final_state.dist.probabilities.tobytes(),
            rec.outcome)


def _ensemble_summaries(p0, model, seeds, **kwargs):
    """Each member's record summary, or its error, from one `run_ensemble`
    over the seeds.  Each member's final posterior is
    `closed_form_distribution` at its final (m, t), bit for bit."""
    run = trajectory.run_ensemble(p0, model, seeds, **kwargs)
    table = amplitude_table(model, p0.z_values)
    assert run.m.shape == (len(seeds), len(run.t))
    out = []
    for counts, k, st in zip(run.m, run.stops.tolist(), run.final_states):
        assert (st.m, st.t) == (counts[k], run.t[k])
        direct = closed_form_distribution(p0, table, model.kappa, st.m, st.t)
        assert (st.dist.probabilities.tobytes()
                == direct.probabilities.tobytes())
        try:
            outcome = classify_outcome(st, model)
        except ClassificationError as exc:
            out.append(repr(exc))
            continue
        out.append((counts[:k + 1].tobytes(), counts.dtype, run.t.tobytes(),
                    st.m, st.t, st.dist.probabilities.tobytes(), outcome))
    return out


def _single_summaries(p0, model, seeds, **kwargs):
    out = []
    for seed in seeds:
        try:
            out.append(_record_summary(run_trajectory(p0, model, seed=seed,
                                                      **kwargs)))
        except ClassificationError as exc:
            out.append(repr(exc))
    return out


def _config_runs(cfg):
    return initial_distribution(cfg), probe_model(cfg), dict(
        max_tau=cfg.max_tau, stop_fwhm=cfg.stop_fwhm,
        sample_interval_tau=cfg.sample_interval_tau,
        snapshot_taus=cfg.snapshots)


def test_run_ensemble_equal_single_runs():
    """An ensemble's members are, byte for byte, their single runs:
    fig2-fig5, the maximum (dark z = 0) and minimum configs, and a Mott
    point mass (zero-prior z), 6 seeds each."""
    cases = [parse_config(load_preset(name))
             for name in ("fig2", "fig3", "fig4", "fig5")]
    cases += [parse_config(_SCENARIO_CONFIG.format(
        scenario=scenario, n_illuminated=n_illuminated, stop_fwhm=stop_fwhm))
        for scenario, n_illuminated, stop_fwhm in (("maximum", 50, 0.3),
                                                   ("minimum", 100, 0.4))]
    cases.append(parse_config(_SCENARIO_CONFIG.format(
        scenario="maximum", n_illuminated=50, stop_fwhm=0.3).replace(
            "superfluid", "mott")))
    assert np.count_nonzero(initial_distribution(cases[-1]).probabilities) == 1
    seeds = [[8, i] for i in range(6)]
    for cfg in cases:
        p0, model, kwargs = _config_runs(cfg)
        assert (_ensemble_summaries(p0, model, seeds, **kwargs)
                == _single_summaries(p0, model, seeds, **kwargs))


def test_run_ensemble_members_stop_in_different_blocks():
    """fig2, 133 members: members stop in different blocks of strides or
    never, and each stops at the first stride `_stop_rows` accepts on its
    whole record, as its single run; the record to the horizon does not
    depend on the stop."""
    cfg = parse_config(load_preset("fig2"))
    p0, model, kwargs = _config_runs(cfg)
    seeds = [[9, i] for i in range(133)]
    assert (_ensemble_summaries(p0, model, seeds, **kwargs)
            == _single_summaries(p0, model, seeds, **kwargs))
    run = trajectory.run_ensemble(p0, model, seeds, **kwargs)
    full = trajectory.run_ensemble(p0, model, seeds,
                                   **{**kwargs, "stop_fwhm": 0.0})
    assert run.m.tobytes() == full.m.tobytes()
    table = amplitude_table(model, p0.z_values)
    p, z = p0.probabilities, p0.z_values.astype(float)
    blocks = set()
    for counts, k in zip(run.m, run.stops.tolist()):
        stop = _stop_rows(trajectory._posteriors(
            p, table, model.kappa, counts[1:], run.t[1:]), z, cfg.stop_fwhm,
            trajectory.PEAK_WEIGHT_THRESHOLD)
        assert k == (1 + int(np.argmax(stop)) if stop.any()
                     else len(run.t) - 1)
        blocks.add((k - 1) // trajectory._BLOCK_STRIDES
                   if stop.any() else None)
    assert None in blocks and len(blocks - {None}) >= 2


def _ensemble_bytes(p0, model, seeds, kwargs):
    """Stops, counts, final posteriors and every member's samples and
    snapshots to its stop, as values, bytes and text."""
    run = trajectory.run_ensemble(p0, model, seeds, **kwargs)
    members = []
    for counts, k, st in zip(run.m, run.stops.tolist(), run.final_states):
        rec = trajectory.RunRecord(
            m=counts[:k + 1], t=run.t, tau=run.tau, p0=p0, model=model,
            final_state=st, outcome=None, snapshot_strides={
                s: j for s, j in run.snapshot_strides if j <= k}, seed=None)
        members.append((repr(rec.samples), st.dist.probabilities.tobytes(),
                        {s: d.probabilities.tobytes()
                         for s, d in rec.snapshots.items()}))
    return run.stops.tolist(), run.m.tobytes(), members


def test_no_output_bit_depends_on_the_block_sizes(monkeypatch):
    """Stops, final posteriors, samples and snapshots are the same bytes
    under any strides per block and rows per log-weight product or exact
    check: fig2, fig3, fig5 and the maximum and minimum configs,
    8 members each."""
    cases = [parse_config(load_preset(name))
             for name in ("fig2", "fig3", "fig5")]
    cases += [parse_config(_SCENARIO_CONFIG.format(
        scenario=scenario, n_illuminated=n_illuminated, stop_fwhm=stop_fwhm))
        for scenario, n_illuminated, stop_fwhm in (("maximum", 50, 0.3),
                                                   ("minimum", 100, 0.4))]
    cases = [_config_runs(cfg) for cfg in cases]
    seeds = [[12, i] for i in range(8)]
    want = [_ensemble_bytes(p0, model, seeds, kwargs)
            for p0, model, kwargs in cases]
    # some members stop inside the first block, some later, some never
    stops = [k for run_stops, _, _ in want for k in run_stops]
    assert min(stops) < 128 < max(stops)
    for sizes in ((1, 7), (7, 3), (1000, 4096), (64, 1)):
        for name, size in zip(("_BLOCK_STRIDES", "_PRODUCT_ROWS"), sizes):
            monkeypatch.setattr(trajectory, name, size)
        for (p0, model, kwargs), runs in zip(cases, want):
            assert _ensemble_bytes(p0, model, seeds, kwargs) == runs, sizes


def test_peak_collapse_width_point_mass_vanishes():
    d = mott_distribution(LatticeSpec(10, 10, 5), Scenario.MAXIMUM)
    _, peaks, fwhm = _peak_widths(d.probabilities[None], d.z_values, 1e-3)
    assert peaks.tolist() == [5] and fwhm.tolist() == [0.0]
    d2 = gaussian_approximation(50.0, 4.0, np.arange(101))
    _, peaks, fwhm = _peak_widths(d2.probabilities[None], d2.z_values, 1e-3)
    assert peaks.tolist() == [50]
    assert fwhm[0] == pytest.approx(4.0 * 2 * np.sqrt(2 * np.log(2)),
                                    rel=0.02)


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


def _exact_distribution_reference(p0, model, jump_times, t):
    """The per-z loop `exact_distribution` ran before it took the z array."""
    z, p = p0.z_values, p0.probabilities
    logw = np.full(len(z), -np.inf)
    for i in range(len(z)):
        a2 = [abs(transient_amplitude(model, z[i], ti)) ** 2
              for ti in jump_times]
        if p[i] > 0 and min(a2, default=1.0) > 0:
            logw[i] = (np.log(p[i]) + np.sum(np.log(a2))
                       + 2.0 * prefactor_exponent_exact(model, z[i], t).real)
    w = np.exp(logw - logw.max())
    return w / w.sum()


@pytest.mark.parametrize("model", [
    trans_model(z_p=2.0, eta=0.3),
    ProbeModel(Scenario.TRANSMISSION, kappa=1.0, u11=1.0, eta=1.0,
               delta_p=3.0),
    max_model(),  # z = 0 is dark at every jump
    ProbeModel(Scenario.MAXIMUM, kappa=0.7, u10=1.0, a0=1.0)])
def test_exact_distribution_matches_per_z_loop(model):
    p0 = superfluid_atom_number(LatticeSpec(6, 3, 2))
    for jump_times, t in (((), 0.3), ((0.2, 0.4, 0.41), 2.0), ((1.5,), 1.5)):
        got = exact_distribution(p0, model, jump_times, t).probabilities
        # the log weights are summed in another order: a few ulps of ~50
        np.testing.assert_allclose(
            got, _exact_distribution_reference(p0, model, jump_times, t),
            rtol=1e-12, atol=0.0)
        if jump_times and model.a0 != 0:
            assert got[0] == 0.0


def test_exact_distribution_aborts_when_every_z_is_dark():
    # alpha(0) = 0 for every z, so a jump at t = 0 has no weight
    p0 = superfluid_atom_number(LatticeSpec(6, 3, 2))
    with pytest.raises(NumericalAbort):
        exact_distribution(p0, max_model(), (0.0,), 1.0)


# ------------------------------------------------------------ classification


def state_from_counts(p0, model, m, tau):
    table = amplitude_table(model, p0.z_values)
    c2 = abs(table.c_constant) ** 2
    t = tau / (2 * c2 * model.kappa)
    dist = closed_form_distribution(p0, table, model.kappa, m, t)
    return FinalState(dist, m, t, 2.0 * c2 * model.kappa * t)


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


def test_classify_minimum_dark_collapse_is_a_singlet():
    """With no count, a minimum-scenario state collapses onto the dark
    z = 0: one component, not a doublet (0, 0) that counts it twice."""
    p0 = superfluid_difference(LatticeSpec(100, 100, 100))
    model = ProbeModel(Scenario.MINIMUM, kappa=1.0, u10=1.0, a0=1.0)
    out = classify_outcome(state_from_counts(p0, model, m=0, tau=30.0), model)
    assert (out.kind, out.z1, out.z2) == ("singlet", 0, None)
    assert out.component_weights == (1.0, 0.0)


@pytest.mark.parametrize("preset", ["fig2", "fig3", "fig5"])
def test_width_matches_a_two_pass_fsum_reference(preset):
    """Every stride's width is within 1e-13 (relative) of the posterior's
    z spread taken with `math.fsum`, in two passes: the mean, then the
    squared distances from it."""
    cfg = parse_config(load_preset(preset))
    p0, model = initial_distribution(cfg), probe_model(cfg)
    rec = run_trajectory(p0, model, seed=[0], max_tau=cfg.max_tau,
                         stop_fwhm=cfg.stop_fwhm,
                         sample_interval_tau=cfg.sample_interval_tau)
    post = trajectory._posteriors(
        p0.probabilities, amplitude_table(model, p0.z_values), model.kappa,
        rec.m, rec.t[:len(rec.m)])
    z = p0.z_values.astype(float)
    for row, sample in zip(post, rec.samples, strict=True):
        mean = math.fsum(row * z)
        want = math.sqrt(math.fsum(row * (z - mean) ** 2))
        assert sample.width == pytest.approx(want, rel=1e-13, abs=0.0)


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
    dist = ZDistribution(z, p)
    st = FinalState(dist, m=5, t=1.0, tau=2.0)
    with pytest.raises(ClassificationError):
        classify_outcome(st, model)


def test_classify_reads_only_dist_m_t_and_tau():
    """Finished records classify again from a namespace holding only the
    final state's dist, m, t and tau, as the benchmark's output check
    builds it."""
    for preset in ("fig2", "fig3", "fig5"):
        p0, model, kwargs = _config_runs(parse_config(load_preset(preset)))
        run = trajectory.run_ensemble(p0, model, [[21, i] for i in range(6)],
                                      **kwargs)
        for st in run.final_states:
            state = types.SimpleNamespace(dist=st.dist, m=st.m, t=st.t,
                                          tau=st.tau)
            assert (classify_outcome(state, model)
                    == classify_outcome(st, model))


# ------------------------------------------------------------ full runs


def test_z_draw_by_inverse_cdf_equals_rng_choice():
    """`sample_counts` inverts p0's cdf at one uniform, which must give
    `rng.choice(len(p), p=p)`'s index and leave the stream where it does
    (the next uniform agrees), whatever numpy does inside `choice`: 2000
    seeds each for fig2's p0, the maximum and minimum superfluids and a p0
    with 30% zero priors.  Rates 1e6 z make each record name its z*."""
    fig2 = initial_distribution(parse_config(load_preset("fig2")))
    p = np.where(fig2.z_values % 10 < 3, 0.0, fig2.probabilities)
    priors = [fig2, superfluid_atom_number(SPEC),
              superfluid_difference(LatticeSpec(100, 100, 100)),
              ZDistribution(fig2.z_values, p / p.sum())]
    assert np.mean(priors[-1].probabilities == 0) > 0.29
    seeds = [[29, i] for i in range(2000)]
    t = np.array([0.0, 1.0, 2.0])
    for p0 in priors:
        p = p0.probabilities
        table = types.SimpleNamespace(intensity=1e6 * np.arange(len(p)))
        got = trajectory.sample_counts(p0, table, 0.5, t, seeds)
        cdf = p.cumsum()
        cdf /= cdf[-1]
        for seed, counts in zip(seeds, got):
            rng = np.random.default_rng(seed)
            z = rng.choice(len(p), p=p)
            want = np.cumsum(rng.poisson(1e6 * z * np.diff(t)))
            assert counts.tolist() == [0, *want.tolist()]
            rng_cdf, rng = (np.random.default_rng(seed) for _ in range(2))
            assert cdf.searchsorted(rng_cdf.random(), side="right") == \
                rng.choice(len(p), p=p)
            assert rng_cdf.random() == rng.random()


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
    direct = closed_form_distribution(p0, amplitude_table(model, p0.z_values),
                                      model.kappa, st.m, st.t)
    assert np.max(np.abs(direct.probabilities
                         - st.dist.probabilities)) < 1e-9


def test_run_trajectory_mott_counts_are_poissonian():
    """A point-mass p0 stays frozen and the counts are plain Poisson."""
    spec = LatticeSpec(100, 100, 50)
    p0 = mott_distribution(spec, Scenario.MAXIMUM)
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
    dist = rec.final_state.dist
    _, peaks, fwhm = _peak_widths(dist.probabilities[None], dist.z_values,
                                  1e-3)
    assert peaks.size and (fwhm < 0.5).all()


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
    table = amplitude_table(rec.model, p0.z_values)
    for tau, k in rec.snapshot_strides.items():
        assert k == np.flatnonzero(np.isclose(tau, taus))[0]
        assert rec.samples[k].tau == pytest.approx(tau, rel=1e-15)
        np.testing.assert_array_equal(
            rec.snapshots[tau].probabilities,
            closed_form_distribution(p0, table, 1.0, rec.samples[k].m,
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


def _eager_record(p0, model, rec, cfg):
    """Samples and snapshots as computed eagerly before they became lazy:
    every count redrawn from the seed, the posteriors of the whole record
    at once and their moments row by row, sliced at the stop."""
    rng = np.random.default_rng(rec.seed)
    table = amplitude_table(model, p0.z_values)
    c2 = abs(table.c_constant) ** 2
    taus, snap_strides = trajectory._recording_grid(
        cfg.max_tau, cfg.sample_interval_tau, tuple(cfg.snapshots))
    t = taus * (1.0 / (2.0 * c2 * model.kappa))
    p, z, lam = p0.probabilities, p0.z_values.astype(float), table.intensity
    rates = 2.0 * model.kappa * lam
    m = np.concatenate(([0], np.cumsum(rng.poisson(
        rates[rng.choice(len(p), p=p)] * np.diff(t)))))
    moments = np.array([z, lam, lam * lam]).T
    dark = lam == 0
    log_lam = np.log(lam, out=np.zeros(len(lam)), where=~dark)
    last = len(rec.m) - 1
    log_factor = np.outer(m, log_lam) - np.outer(t, rates)
    log_factor[np.ix_(m > 0, dark)] = -np.inf
    post = trajectory._reweighted(p, log_factor)[:last + 1]
    mean_z, mean_lam, mean_lam2 = np.einsum("ij,jk->ik", post, moments).T
    var_z = np.einsum("ij,ij->i", post, (z - mean_z[:, None]) ** 2)
    q = np.divide(mean_lam2 - mean_lam**2, mean_lam * c2,
                  out=np.zeros(last + 1), where=mean_lam > 0)
    columns = (t, taus, m, mean_z, np.sqrt(var_z), mean_lam / c2, q)
    samples = list(map(trajectory.Sample,
                       *(c[:last + 1].tolist() for c in columns)))
    snapshots = {s: closed_form_distribution(p0, table, model.kappa,
                                             int(m[k]), t[k])
                 for s, k in snap_strides if k <= last}
    return samples, snapshots


def test_lazy_samples_and_snapshots_equal_eager_reference():
    """Read in either order, a record's samples and snapshots are bit for
    bit those computed eagerly from the full count record; a run stopped
    early reads as the prefix of the same seed's unstopped run."""
    cases = [parse_config(load_preset(name))
             for name in ("fig2", "fig3", "fig4", "fig5")]
    cases += [parse_config(_SCENARIO_CONFIG.format(
        scenario=scenario, n_illuminated=n_illuminated, stop_fwhm=stop_fwhm))
        for scenario, n_illuminated, stop_fwhm in (("maximum", 50, 0.3),
                                                   ("maximum", 50, 0.05),
                                                   ("maximum", 50, 0.0),
                                                   ("minimum", 100, 0.4))]
    n_records, stops = 0, []
    for cfg in cases:
        p0, model = initial_distribution(cfg), probe_model(cfg)
        for i in range(3):
            kwargs = dict(seed=[3, i], max_tau=cfg.max_tau,
                          sample_interval_tau=cfg.sample_interval_tau,
                          snapshot_taus=cfg.snapshots)
            try:
                rec = run_trajectory(p0, model, stop_fwhm=cfg.stop_fwhm,
                                     **kwargs)
            except ClassificationError:
                continue
            first = rec.snapshots if i == 1 else rec.samples
            samples, snapshots = _eager_record(p0, model, rec, cfg)
            assert repr(rec.samples) == repr(samples)
            assert list(rec.snapshots) == list(snapshots)
            for tau, dist in snapshots.items():
                assert rec.snapshots[tau].probabilities.tobytes() == \
                    dist.probabilities.tobytes()
            assert rec.samples[-1].m == rec.final_state.m == rec.m[-1]
            assert first is (rec.snapshots if i == 1 else rec.samples)
            full = run_trajectory(p0, model, stop_fwhm=0.0, **kwargs)
            assert repr(rec.samples) == repr(full.samples[:len(rec.m)])
            n_records += 1
            stops.append((len(rec.m) - 1, len(rec.t) - 1))
    assert n_records >= 21
    # stops in the first block, inside a later one and at the grid's end
    assert any(k < 128 for k, _ in stops)
    assert any(128 < k < end for k, end in stops)
    assert any(k == end for k, end in stops)
    # cut anywhere, also where a block keeps one row, the last full run
    # reads as its prefix
    for k in (1, 127, 128, 129, 256, 300):
        cut = dataclasses.replace(full, m=full.m[:k + 1])
        assert repr(cut.samples) == repr(full.samples[:k + 1])


def test_updates_build_distributions_without_validation(monkeypatch):
    """Posteriors from `_reweighted` are not re-checked; a distribution a
    caller builds still is."""
    p0 = superfluid_atom_number(SPEC)
    model = trans_model(z_p=50.0)
    st = make_state(p0, model)

    def refuse(self):
        raise AssertionError("validated a posterior")

    with monkeypatch.context() as patch:
        patch.setattr(ZDistribution, "__post_init__", refuse)
        st = no_count_step(jump(jump(st)), 0.5)
        dists = [st.dist, exact_distribution(p0, model, (0.1, 0.2), 0.5),
                 closed_form_distribution(p0, st.amplitudes, model.kappa,
                                          st.m, st.t)]
    for d in dists:
        assert d.z_values is p0.z_values
        assert d.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(dists[0].probabilities, dists[2].probabilities,
                               rtol=1e-12)
    for bad in (np.full(101, 1.0), np.full(101, np.nan),
                np.concatenate(([-0.5, 1.5], np.zeros(99)))):
        with pytest.raises(ValueError):
            ZDistribution(p0.z_values, bad)


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
    table = amplitude_table(model, p0.z_values)
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
    tau = 2.0 * abs(table.c_constant) ** 2 * model.kappa * t[-1]
    return m, classify_outcome(FinalState(final, m[-1], t[-1], tau), model)


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


@pytest.mark.slow
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


@pytest.mark.slow
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
    p0 = mott_distribution(LatticeSpec(100, 100, 50), Scenario.MAXIMUM)
    rec = run_trajectory(p0, max_model(), seed=3, max_tau=2.0, stop_fwhm=0.5)
    assert len(rec.samples) == 2
    assert rec.samples[1].m > 0
