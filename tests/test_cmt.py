"""Coupled-mode propagator against a direct ODE integration, and the
fitting/spectrum helpers built on it."""

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import curve_fit

import qpic
from qpic import cmt, source
from qpic.cmt import (CouplerFit, compose_sections, conversion_fraction,
                      fit_coupler, load_coupler_fit, pbs_angles, pc_window,
                      peak_fwhm, save_coupler_fit, splitting_ratio,
                      switch_map)
from qpic.dispersion import pc_matched_wavelength
from tests.conftest import bundled
from tests.oracles import coupling_matrix, ode_transfer


@pytest.mark.parametrize("kappa,dbeta,length", [
    (2e-4, 0.0, 3000.0),
    (2e-4, 5e-4, 3000.0),
    (1e-3, -3e-4, 1500.0),
    (5e-5, 2e-3, 8000.0),
])
def test_single_section_matches_ode(kappa, dbeta, length):
    analytic = compose_sections(kappa, (dbeta,), length)
    numeric = ode_transfer(kappa, [dbeta], length)
    assert np.max(np.abs(analytic - numeric)) < 1e-8


def test_two_sections_match_ode():
    kappa = 2.0e-4
    half = 2500.0
    for db1, db2 in [(4e-4, -4e-4), (3e-4, 3e-4), (0.0, 6e-4)]:
        analytic = compose_sections(kappa, (db1, db2), half)
        numeric = ode_transfer(kappa, [db1, db2], half)
        assert np.max(np.abs(analytic - numeric)) < 1e-8


def test_compose_single_section_is_closed_form():
    kappa, db, length = 3e-4, 2e-4, 4000.0
    a = compose_sections(kappa, (db,), length)
    b = coupling_matrix(kappa, db, length)
    assert np.max(np.abs(a - b)) < 1e-15


def test_compose_swap_symmetric_magnitudes():
    # swapping the two section detunings must not change transfer powers
    kappa = math.pi / 16000.0
    half = 4000.0
    fwd = compose_sections(kappa, (3e-4, -1e-4), half)
    rev = compose_sections(kappa, (-1e-4, 3e-4), half)
    assert np.max(np.abs(np.abs(fwd) ** 2 - np.abs(rev) ** 2)) < 1e-12


def test_coupling_matrix_unitary():
    u = compose_sections(4e-4, (7e-4,), 6000.0)
    assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12


def test_full_conversion():
    length = 5000.0
    kappa = math.pi / (2 * length)
    u = compose_sections(kappa, (0.0,), length)
    assert abs(u[1, 0]) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_conversion_fraction_matched(model):
    length = 7600.0
    kappa = math.pi / (2 * length)
    lam0 = pc_matched_wavelength(model, 21.4)
    assert conversion_fraction(model, 21.4, length, kappa, lam0) == pytest.approx(
        1.0, abs=1e-9)
    assert conversion_fraction(model, 21.4, length, 0.5 * kappa, lam0) == pytest.approx(
        math.sin(math.pi / 4) ** 2, abs=1e-9)


def test_pc_spectrum_frozen_width(model):
    length = 7600.0
    kappa = math.pi / (2 * length)
    window = pc_window(model, 21.4, length, kappa)
    assert window.fwhm * 1e3 == pytest.approx(3.1766, abs=0.01)
    assert np.max(window.fraction) == pytest.approx(1.0, abs=1e-6)


def test_pc_spectrum_width_halves_with_length(model):
    l1 = 7600.0
    w1 = pc_window(model, 21.4, l1, math.pi / (2 * l1)).fwhm
    w2 = pc_window(model, 21.4, 2 * l1, math.pi / (4 * l1)).fwhm
    assert w2 / w1 == pytest.approx(0.5, abs=0.02)


@pytest.mark.parametrize("wavelengths", [None, np.linspace(1.56, 1.58, 401)],
                         ids=["auto", "given"])
def test_pc_window_reports_its_samples(model, wavelengths):
    # the centre is the matched wavelength and the width that of the
    # returned samples, on the automatic window and on a given grid alike
    window = pc_window(model, 21.4, 7600.0, math.pi / 15200.0,
                       temperature=30.0, wavelengths=wavelengths)
    assert window.centre == pc_matched_wavelength(model, 21.4, 30.0)
    assert window.fwhm == peak_fwhm(window.wavelengths, window.fraction)
    assert np.array_equal(window.fraction, conversion_fraction(
        model, 21.4, 7600.0, math.pi / 15200.0, window.wavelengths, 30.0))
    if wavelengths is not None:
        assert np.array_equal(window.wavelengths, wavelengths)


def test_converter_rejects_non_finite(model):
    # a comparison with NaN is False, so the checks must be positive ones
    with pytest.raises(qpic.RangeError,
                       match="section coupling must be finite, got nan"):
        conversion_fraction(model, 21.4, 7600.0, math.nan, 1.55)
    with pytest.raises(qpic.RangeError, match="wavelength nan um"):
        pc_window(model, 21.4, 7600.0, 2e-4, wavelengths=[1.55, math.nan])
    with pytest.raises(qpic.RangeError,
                       match="section length must be finite, got inf"):
        conversion_fraction(model, 21.4, math.inf, 1e-4, 1.55)
    with pytest.raises(qpic.RangeError,
                       match="section coupling must be finite, got inf"):
        conversion_fraction(model, 21.4, 1000.0, math.inf, 1.55)


@pytest.mark.parametrize("args, match", [
    ((math.nan, 0.0, 100.0), "^coupling must be finite, got nan$"),
    ((1e-3, math.nan, 100.0), "^mismatch must be finite, got nan$"),
    ((1e-3, 0.0, math.inf), "^section length must be finite, got inf$"),
    (([1e-3, -math.inf], 0.0, 100.0), "^coupling must be finite, got -inf$"),
    ((1e-3, [0.0, 1e-4], [100.0, math.nan]),
     "^section length must be finite, got nan$"),
], ids=["kappa", "dbeta", "z", "kappa-element", "z-element"])
def test_coupling_matrix_rejects_non_finite(args, match):
    kappa, dbeta, length = args
    with pytest.raises(qpic.RangeError, match=match):
        compose_sections(kappa, (dbeta,), length)


@pytest.mark.parametrize("length", [5.0, 1e-9])
def test_pc_spectrum_window_outside_validity_names_length(model, length):
    # the auto window widens as 1/length and leaves [0.4, 2.0] um
    with pytest.raises(qpic.RangeError, match=f"converter length {length} um"):
        pc_window(model, 21.4, length, math.pi / (2 * length))


def test_peak_fwhm_gaussian():
    x = np.linspace(-5, 5, 4001)
    sigma = 0.7
    y = np.exp(-x ** 2 / (2 * sigma ** 2))
    expect = 2 * math.sqrt(2 * math.log(2)) * sigma
    assert peak_fwhm(x, y) == pytest.approx(expect, rel=1e-5)


def test_peak_fwhm_needs_flanks():
    x = np.linspace(0, 1, 50)
    y = 1.0 - 0.1 * x  # never drops to half
    with pytest.raises(qpic.NumericalError):
        peak_fwhm(x, y)


@pytest.mark.parametrize("x, y", [
    ([3.0, 1.0, 2.0], [0.0, 1.0, 0.0]),
    ([0.0, 1.0, 1.0, 2.0], [0.0, 1.0, 1.0, 0.0]),
    ([0.0, np.nan, 2.0], [0.0, 1.0, 0.0]),
    ([0.0, 1.0, np.inf], [0.0, 1.0, 0.0]),
    ([0.0, 1.0, 2.0], [0.0, 1.0, 0.5, 0.0]),
    ([], []),
], ids=["unsorted", "repeated", "nan", "inf", "lengths", "empty"])
def test_peak_fwhm_needs_increasing_finite_x(x, y):
    # unsorted x gave a width of -0.5, no x numpy's argmax error
    with pytest.raises(qpic.ValidationError):
        peak_fwhm(x, y)


@pytest.mark.parametrize("peak", [np.nan, 0.0, -1.0])
def test_peak_fwhm_needs_a_positive_peak(peak):
    x = np.linspace(0, 1, 51)
    y = np.where(np.arange(51) == 25, peak, -2.0)
    with pytest.raises(qpic.NumericalError):
        peak_fwhm(x, y)


def test_switch_map_symmetry_and_extremes():
    half = 4000.0
    kappa_c = math.pi / (4 * half)
    volts = np.linspace(-40.0, 40.0, 41)
    bar = switch_map(kappa_c, half, volts, volts)
    assert bar.shape == (41, 41)
    assert np.max(np.abs(bar - bar.T)) < 1e-12
    # zero volts: full crossing; strong detuning: light stays put
    mid = np.argmin(np.abs(volts))
    assert bar[mid, mid] < 0.01
    assert np.max(bar) > 0.99
    assert np.all(bar >= -1e-12) and np.all(bar <= 1 + 1e-12)


def test_row_blocks_are_bit_identical(model):
    # switch_map one u1 row per block and pc_window 7 wavelengths per
    # block, against one block of the whole map and window
    u1, u2 = np.linspace(-40.0, 40.0, 37), np.linspace(-30.0, 50.0, 41)
    lam = np.linspace(1.56, 1.58, 401)
    runs = []
    for chunk in (7, 1 << 20):
        with mock.patch.object(source, "CHUNK_POINTS", chunk):
            runs.append((switch_map(math.pi / 16000.0, 4000.0, u1, u2),
                         pc_window(model, 21.4, 7600.0, 2e-4,
                                   wavelengths=lam).fraction))
    for blocked, whole in zip(*runs):
        assert blocked.tobytes() == whole.tobytes()


@pytest.mark.parametrize("kappa_c, half_length", [
    (-1e-4, 4000.0), (math.nan, 4000.0), (1e-4, 0.0), (1e-4, math.nan),
], ids=["kappa-negative", "kappa-nan", "half-length-0", "half-length-nan"])
def test_switch_map_rejects_what_eobs_rejects(kappa_c, half_length):
    with pytest.raises(qpic.RangeError):
        switch_map(kappa_c, half_length, [0.0, 1.0], [0.0, 1.0])


@pytest.mark.parametrize("coupler, u1, u2, per_volt, name", [
    ((math.inf, 4000.0), [0.0], [0.0], None, "switch map coupling"),
    ((1e-4, math.inf), [0.0], [0.0], None, "switch map length"),
    ((1e-4, 4000.0), [0.0, math.nan], [0.0], None, "switch map u1"),
    ((1e-4, 4000.0), [0.0], [math.inf], None, "switch map u2"),
    ((1e-4, 4000.0), [0.0], [0.0], math.nan, "dbeta_per_volt"),
], ids=["kappa-inf", "half-length-inf", "u1-nan", "u2-inf", "per-volt-nan"])
def test_switch_map_rejects_non_finite(coupler, u1, u2, per_volt, name):
    with pytest.raises(qpic.RangeError, match=f"{name} must be finite"):
        switch_map(*coupler, u1, u2, per_volt)


def synth_ratios(beat, offset, lengths, rng):
    clean = np.sin(np.pi * (lengths - offset) / (2 * beat)) ** 2
    return np.clip(clean + rng.normal(0, 1e-3, lengths.shape), 0, 1)


def test_fit_coupler_recovers_parameters(rng):
    lengths = np.arange(100.0, 1301.0, 50.0)
    r_te = synth_ratios(900.0, 450.0, lengths, rng)
    r_tm = synth_ratios(850.0, 530.0, lengths, rng)
    fit = fit_coupler(lengths, r_te, lengths, r_tm)
    assert fit.beat_te == pytest.approx(900.0, rel=0.02)
    assert fit.offset_te == pytest.approx(450.0, abs=20.0)
    assert fit.beat_tm == pytest.approx(850.0, rel=0.02)
    assert fit.offset_tm == pytest.approx(530.0, abs=20.0)


def _jacobian_residual(lengths, ratios, beat, offset):
    # the sin^2 model's residual and Jacobian, written out independently
    theta = np.pi * (lengths - offset) / (2 * beat)
    r = np.sin(theta) ** 2 - ratios
    jac = -np.sin(2 * theta)[:, None] * np.stack(
        [theta / beat, np.full_like(theta, np.pi / (2 * beat))], axis=1)
    return jac, r


def test_bundled_fit_is_stationary():
    # the gradient J^T r vanishes to rounding at the fitted parameters; the
    # fixed coupler-fit values in test_cli rest on this
    fit = fit_coupler(*load_csv("coupler_ratios_te.csv"),
                      *load_csv("coupler_ratios_tm.csv"))
    for name, beat, offset in (("te", fit.beat_te, fit.offset_te),
                               ("tm", fit.beat_tm, fit.offset_tm)):
        jac, r = _jacobian_residual(*load_csv(f"coupler_ratios_{name}.csv"),
                                    beat, offset)
        assert np.linalg.norm(jac.T @ r) <= (
            1e-12 * np.linalg.norm(jac) * np.linalg.norm(r))


def _curve_fit_reference(lengths, ratios):
    # scipy's bounded least squares from the same start in the same box, as
    # tightly converged as it goes; it still stops up to ~7e-10 relative
    # short of the minimum on these tables
    span = lengths.max() - lengths.min()
    p0 = (span, lengths[np.argmin(ratios)])
    popt, _ = curve_fit(lambda x, b, o: np.sin(np.pi * (x - o) / (2 * b)) ** 2,
                        lengths, ratios, p0=p0,
                        bounds=([1e-3, lengths.min() - span],
                                [1e5, lengths.max() + span]),
                        maxfev=20000, xtol=1e-15, ftol=1e-15, gtol=1e-15)
    return popt


@given(beat=st.floats(750.0, 1050.0), offset=st.floats(350.0, 750.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_fit_matches_curve_fit(beat, offset, seed):
    lengths = np.arange(100.0, 1301.0, 50.0)
    ratios = synth_ratios(beat, offset, lengths, np.random.default_rng(seed))
    fit = fit_coupler(lengths, ratios, lengths, ratios)
    reference = _curve_fit_reference(lengths, ratios)
    assert fit.beat_te == pytest.approx(reference[0], rel=1e-9)
    assert fit.offset_te == pytest.approx(reference[1], rel=1e-9)


@pytest.mark.parametrize("ratio", [0.0, 0.3, 0.5, 1.0])
def test_fit_of_flat_table_is_numerical_error(ratio):
    # a flat table does not determine the sin^2 model: the fit either runs
    # out of steps or ends on a bound of its box
    lengths = np.arange(100.0, 1301.0, 50.0)
    ratios = np.full(lengths.shape, ratio)
    with pytest.raises(qpic.NumericalError, match="coupler fit"):
        fit_coupler(lengths, ratios, lengths, ratios)


@pytest.mark.parametrize("branch", ["TE", "TM"])
def test_fit_coupler_needs_a_ratio_per_length(branch):
    # numpy raised a broadcast ValueError
    lengths = np.linspace(100.0, 900.0, 9)
    ratios = np.sin(np.pi * lengths / 1600.0) ** 2
    tables = [lengths, ratios, lengths, ratios]
    tables[0 if branch == "TE" else 2] = np.append(lengths, 1000.0)
    with pytest.raises(qpic.ValidationError, match=f"{branch} has"):
        fit_coupler(*tables)


def test_fit_of_one_length_is_singular():
    lengths = np.full(5, 300.0)
    ratios = np.linspace(0.1, 0.5, 5)
    with pytest.raises(qpic.NumericalError, match="singular normal matrix"):
        fit_coupler(lengths, ratios, lengths, ratios)


def test_fit_step_cap_is_numerical_error():
    tables = (*load_csv("coupler_ratios_te.csv"),
              *load_csv("coupler_ratios_tm.csv"))
    with mock.patch.object(cmt, "FIT_MAX_ITER", 3):
        with pytest.raises(qpic.NumericalError,
                           match="did not converge in 3 steps"):
            fit_coupler(*tables)
    fit_coupler(*tables)  # the same tables fit without the cap


def load_csv(name):
    import csv
    with open(bundled(name), newline="") as fh:
        rows = list(csv.reader(fh))
    data = np.array(rows[1:], dtype=float)
    return data[:, 0], data[:, 1]


def test_bundled_coupler_data_anchor():
    l_te, r_te = load_csv("coupler_ratios_te.csv")
    l_tm, r_tm = load_csv("coupler_ratios_tm.csv")
    fit = fit_coupler(l_te, r_te, l_tm, r_tm)
    # cross ratios at the 500 um working length stay small for both pols
    assert splitting_ratio(fit, 500.0, "H") == pytest.approx(0.0076, abs=0.02)
    assert splitting_ratio(fit, 500.0, "V") == pytest.approx(0.0031, abs=0.02)


def test_pbs_angles_from_fit():
    fit = CouplerFit(beat_te=900.0, offset_te=450.0,
                     beat_tm=850.0, offset_tm=530.0)
    alpha, beta = pbs_angles(fit, 500.0)
    r_h = splitting_ratio(fit, 500.0, "H")
    r_v = splitting_ratio(fit, 500.0, "V")
    assert math.sin(alpha) ** 2 == pytest.approx(1.0 - r_h, abs=1e-12)
    assert math.sin(beta) ** 2 == pytest.approx(1.0 - r_v, abs=1e-12)


@pytest.mark.parametrize("field", ["beat_te", "offset_te", "beat_tm",
                                   "offset_tm"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_coupler_fit_rejects_non_finite(field, value):
    # only beats <= 0 were rejected: a NaN beat or offset passed
    values = dict(beat_te=900.0, offset_te=450.0, beat_tm=850.0,
                  offset_tm=530.0)
    with pytest.raises(qpic.RangeError, match="must be finite"):
        CouplerFit(**{**values, field: value})


@pytest.mark.parametrize("length", [np.nan, np.inf, [500.0, np.nan]])
def test_coupler_length_must_be_finite(length):
    # both gave NaN with a RuntimeWarning
    fit = CouplerFit(beat_te=900.0, offset_te=450.0,
                     beat_tm=850.0, offset_tm=530.0)
    match = "^coupler length must be finite, got (nan|inf)$"
    with pytest.raises(qpic.RangeError, match=match):
        splitting_ratio(fit, length, "H")
    if np.ndim(length) == 0:
        with pytest.raises(qpic.RangeError, match=match):
            pbs_angles(fit, length)


def test_coupler_fit_roundtrip(tmp_path):
    fit = CouplerFit(beat_te=912.5, offset_te=448.25,
                     beat_tm=851.75, offset_tm=531.5)
    path = tmp_path / "fit.txt"
    save_coupler_fit(fit, path)
    again = load_coupler_fit(path)
    assert again == fit


@pytest.mark.parametrize("text, where", [
    ("beat_te = nan\noffset_te = 1\nbeat_tm = 1\noffset_tm = 1\n",
     "line 1, column 11: value must be finite"),
    ("beat_te = 1\noffset_te = 1\nbeat_tm = 1\noffset_tm = 1\n"
     "BEAT_TE = 2\n", "line 5: duplicate key 'beat_te'"),
    ("beat_te = 1\noffset_te = 1\nbeat_tm = 1\noffset_tm = 1\n"
     "gap = 2\n", "line 5: unknown key 'gap'"),
], ids=["nan", "repeated-key", "unknown-key"])
def test_coupler_fit_file_rejects(tmp_path, text, where):
    path = tmp_path / "fit.txt"
    path.write_text(text)
    with pytest.raises(qpic.ValidationError,
                       match=re.escape(f"{path}: {where}")):
        load_coupler_fit(path)
