"""Refractive-index model, wavevectors, and phase-matching roots."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import qpic
from qpic.dispersion import (C_UM_PS, MaterialModel,
                             _brent, _bracketed_roots, _matched_wavelength,
                             degenerate_wavelength, group_index,
                             group_velocity, index, load_material,
                             omega_from_wavelength, pc_matched_wavelength,
                             pc_mismatch, pdc_mismatch, tuning_curve,
                             wavelength_from_omega, wavevector)
from qpic.errors import NumericalError, RangeError, ValidationError


@pytest.fixture(scope="module")
def bare(model):
    # same Sellmeier sets with the waveguide index offsets removed
    return MaterialModel(model.ordinary, model.extraordinary,
                         delta_n_h=0.0, delta_n_v=0.0, name="bare")


def test_frozen_bulk_indices(bare):
    # values frozen from an independent evaluation of the published fits
    assert index(bare, "H", 1.55) == pytest.approx(2.211236218093917, abs=1e-12)
    assert index(bare, "V", 1.55) == pytest.approx(2.137861383180373, abs=1e-12)
    assert index(bare, "H", 0.775) == pytest.approx(2.258624621126907, abs=1e-12)
    assert index(bare, "V", 0.775) == pytest.approx(2.178701871844705, abs=1e-12)


def test_frozen_bulk_indices_hot(bare):
    assert index(bare, "H", 1.55, 100.0) == pytest.approx(2.211586779996821, abs=1e-12)
    assert index(bare, "V", 1.55, 100.0) == pytest.approx(2.141045365762096, abs=1e-12)


def test_waveguide_offsets(model, bare):
    lam = 1.55
    assert index(model, "H", lam) == pytest.approx(index(bare, "H", lam) + 0.01, abs=1e-15)
    assert index(model, "V", lam) == pytest.approx(index(bare, "V", lam) + 0.01, abs=1e-15)


def test_birefringence_sign(model):
    # ordinary (H) exceeds extraordinary (V) across the band
    for lam in (0.775, 1.3, 1.55, 1.8):
        assert index(model, "H", lam) > index(model, "V", lam)


def test_index_increases_with_temperature(model):
    for pol in ("H", "V"):
        cold = index(model, pol, 1.55, 20.0)
        hot = index(model, pol, 1.55, 120.0)
        assert hot > cold


def test_wavelength_omega_roundtrip():
    lam = np.linspace(0.5, 1.9, 11)
    back = wavelength_from_omega(omega_from_wavelength(lam))
    assert np.allclose(back, lam, rtol=0, atol=1e-12)
    assert omega_from_wavelength(1.55) == pytest.approx(
        2.0 * math.pi * C_UM_PS / 1.55, abs=1e-9)


@pytest.mark.parametrize("pol", ["H", "V"])
def test_index_keeps_extended_precision(model, pol):
    # the extended-precision oracle of the tests passes np.longdouble
    # frequencies; the indices keep that precision, and round to the
    # double indices
    omega = np.linspace(1200.0, 1230.0, 7)
    lam = wavelength_from_omega(omega.astype(np.longdouble))
    n = index(model, pol, lam, 30.0)
    assert lam.dtype == n.dtype == np.longdouble
    np.testing.assert_allclose(n.astype(float),
                               index(model, pol, wavelength_from_omega(omega),
                                     30.0),
                               rtol=4 * np.finfo(float).eps, atol=0.0)


def test_wavelength_range_enforced(model):
    with pytest.raises(RangeError):
        index(model, "H", 0.2)
    with pytest.raises(RangeError):
        index(model, "H", 2.5)
    with pytest.raises(RangeError):
        index(model, "H", 1.55, 300.0)
    # a comparison with NaN is False, so the check must be a positive one
    for bad in (math.nan, math.inf, np.array([1.55, math.nan])):
        with pytest.raises(RangeError, match=r"wavelength (nan|inf) um"):
            index(model, "H", bad)


def test_bad_polarization(model):
    with pytest.raises(ValidationError):
        index(model, "X", 1.55)


def test_wavevector_monotonic(model):
    omega = omega_from_wavelength(np.linspace(1.9, 0.5, 200))
    k = wavevector(model, "H", omega)
    assert np.all(np.diff(k) > 0)


def test_wavevector_rejects_nonpositive(model):
    with pytest.raises(ValidationError):
        wavevector(model, "H", 0.0)
    for bad in (math.nan, np.array([1.2, math.nan])):
        with pytest.raises(RangeError, match="got nan rad/ps"):
            wavevector(model, "H", bad)


def test_group_velocity_against_wide_stencil(model):
    # compare the built-in stencil with an independent coarse one
    w = omega_from_wavelength(1.55)
    h = w * 1e-4
    slope = (wavevector(model, "H", w + h) - wavevector(model, "H", w - h)) / (2 * h)
    assert group_velocity(model, "H", w) == pytest.approx(1.0 / slope, rel=1e-6)


def test_frozen_group_indices(model):
    w_s = omega_from_wavelength(1.55)
    w_p = omega_from_wavelength(0.775)
    assert group_index(model, "H", w_s) == pytest.approx(2.2738063560116735, abs=1e-9)
    assert group_index(model, "V", w_s) == pytest.approx(2.1924049575945954, abs=1e-9)
    assert group_index(model, "H", w_p) == pytest.approx(2.378204058525734, abs=1e-9)


def test_group_index_exceeds_phase_index(model):
    # normal dispersion in this band
    w = omega_from_wavelength(1.55)
    assert group_index(model, "H", w) > index(model, "H", 1.55)
    assert group_index(model, "V", w) > index(model, "V", 1.55)


def test_degenerate_wavelength_frozen(model):
    lam = degenerate_wavelength(model, 9.217870197227)
    assert lam == pytest.approx(1.55, abs=1e-9)


def test_degenerate_root_residual(model):
    period = 9.217870197227
    lam = degenerate_wavelength(model, period)
    w = omega_from_wavelength(lam)
    assert abs(pdc_mismatch(model, period, w, w)) < 1e-10


def test_pc_matched_wavelength_frozen(model):
    assert pc_matched_wavelength(model, 21.124408686252) == pytest.approx(1.55, abs=1e-9)
    assert pc_matched_wavelength(model, 21.4) == pytest.approx(1.5682089091249, abs=1e-9)


def test_pc_root_residual(model):
    lam = pc_matched_wavelength(model, 21.4)
    assert abs(pc_mismatch(model, 21.4, lam)) < 1e-10


def test_no_root_raises(model):
    with pytest.raises(qpic.PhaseMatchError, match=r"no phase-matching in "
                       r"band \[1\.4, 1\.7\] um for poling period 5\.0 um "
                       r"at 24\.5 C"):
        degenerate_wavelength(model, 5.0)
    with pytest.raises(qpic.PhaseMatchError, match=r"no phase-matching in "
                       r"band \[1\.4, 1\.75\] um for conversion poling "
                       r"period 5\.0 um$"):
        pc_matched_wavelength(model, 5.0)


def _scalar_roots(fn, lo, hi, samples, xtol=1e-14):
    # reference scan: fn once per sample, then a loop over neighbouring pairs
    xs = np.linspace(lo, hi, samples)
    ys = [fn(x) for x in xs]
    roots = []
    for i in range(samples - 1):
        if ys[i] == 0.0:
            roots.append(xs[i])
        elif ys[i] * ys[i + 1] < 0.0:
            roots.append(brentq(fn, xs[i], xs[i + 1], xtol=xtol,
                                rtol=8.9e-16))
    if ys[-1] == 0.0:
        roots.append(xs[-1])
    return roots


@pytest.mark.parametrize("fn, lo, hi, samples, expected", [
    (np.sin, 0.5, 10.0, 50, [np.pi, 2 * np.pi, 3 * np.pi]),
    # exact zeros on the inner samples -1, 0 and 1, each counted once
    (lambda x: x ** 3 - x, -2.0, 2.0, 5, [-1.0, 0.0, 1.0]),
    (lambda x: x - 1.0, 0.0, 2.0, 5, [1.0]),
    (lambda x: x - 2.0, 0.0, 2.0, 7, [2.0]),  # root on the last sample
    (lambda x: x * x + 1.0, -1.0, 1.0, 11, []),
], ids=["several", "inner-samples", "inner-crossing", "last-sample", "none"])
def test_bracketed_roots_match_scalar_scan(fn, lo, hi, samples, expected):
    roots = _bracketed_roots(fn, lo, hi, samples)
    assert roots == _scalar_roots(fn, lo, hi, samples)
    assert roots == sorted(roots)
    np.testing.assert_allclose(roots, expected, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("temperature", [20.0, 24.5, 28.0])
def test_phase_matching_scans_match_scalar_scan(model, temperature):
    period = 9.217870197227
    w_p = float(omega_from_wavelength(0.775))

    def conversion(lam):
        return pc_mismatch(model, 21.4, lam, temperature)

    def pair(x):  # tuning_curve's offset scan
        return pdc_mismatch(model, period, w_p / 2 + x, w_p / 2 - x,
                            temperature)

    def ridge(d):  # source._ridge_offset's scan
        return pdc_mismatch(model, period, (w_p + d) / 2, (w_p - d) / 2,
                            temperature)

    for fn, lo, hi, samples, xtol in [(conversion, 1.4, 1.75, 301, 1e-14),
                                      (pair, -100.0, 100.0, 401, 1e-14),
                                      (ridge, -50.0, 50.0, 1001, 1e-12)]:
        roots = _bracketed_roots(fn, lo, hi, samples, xtol=xtol)
        assert len(roots) >= 1
        assert roots == _scalar_roots(fn, lo, hi, samples, xtol=xtol)


def test_bracketed_roots_evaluate_samples_in_one_call():
    shapes = []

    def fn(x):
        shapes.append(np.shape(x))
        return np.cos(x)

    roots = _bracketed_roots(fn, 0.0, 4.0, 41)
    assert roots == [pytest.approx(np.pi / 2, abs=1e-14)]
    # the whole sample array first, then scalar Brent refinement only
    assert shapes[0] == (41,)
    assert len(shapes) > 1 and set(shapes[1:]) == {()}


coefficient = st.floats(-3.0, 3.0)


@settings(max_examples=300)
@given(c=st.tuples(*[coefficient] * 4), r=coefficient,
       left=st.floats(1e-6, 5.0), right=st.floats(1e-6, 5.0),
       scale=st.sampled_from([1.0, 1e-300]))
def test_brent_matches_scipy_brentq(c, r, left, right, scale):
    # scipy is a test-time oracle only: same float, same failures. The
    # bracket straddles r, which the sin and cos terms move off the root.
    # At scale 1e-300 products of slopes underflow to 0, and a division by
    # them must bisect as C's inf/nan does
    def fn(x):
        return scale * ((x - r) * (1.0 + c[0] ** 2 + c[1] * math.sin(3.0 * x))
                        + c[2] * (x - r) ** 3 + 0.1 * c[3] * math.cos(x))

    a, b = r - left, r + right
    for xtol in (1e-12, 1e-14):
        try:
            expected = brentq(fn, a, b, xtol=xtol, rtol=8.9e-16)
        except ValueError:  # no sign change on [a, b]
            with pytest.raises(NumericalError, match="no sign change"):
                _brent(fn, a, b, xtol=xtol, rtol=8.9e-16)
            continue
        root = _brent(fn, a, b, xtol=xtol, rtol=8.9e-16)
        assert type(root) is float
        assert root == expected


def test_brent_exact_zero_at_an_endpoint():
    for a, b in [(1.0, 2.0), (0.0, 1.0)]:
        root = _brent(lambda x: x - 1.0, np.float64(a), np.float64(b),
                      xtol=1e-14, rtol=8.9e-16)
        assert type(root) is float and root == 1.0
        assert root == brentq(lambda x: x - 1.0, a, b)


def test_brent_failures():
    def step(x):
        return -1.0 if x < 0.0 else 1.0

    with pytest.raises(NumericalError, match="no sign change"):
        _brent(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-14, rtol=8.9e-16)
    for bad in (math.nan, math.inf):
        with pytest.raises(NumericalError, match=f"root function is {bad}"):
            _brent(lambda x: bad if x > 0.5 else x - 0.7, 0.0, 1.0,
                   xtol=1e-14, rtol=8.9e-16)
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0)
    # a jump at 0: Brent converges in 100 steps at xtol 2**-97, in 101 at
    # 2**-98, so the step budget counts as scipy's
    root = _brent(step, -1.0, 2.0, xtol=2.0 ** -97, rtol=8.9e-16)
    assert root == brentq(step, -1.0, 2.0, xtol=2.0 ** -97, rtol=8.9e-16)
    with pytest.raises(NumericalError, match="did not converge in 100 steps"):
        _brent(step, -1.0, 2.0, xtol=2.0 ** -98, rtol=8.9e-16)
    with pytest.raises(RuntimeError, match="100 iterations"):
        brentq(step, -1.0, 2.0, xtol=2.0 ** -98, rtol=8.9e-16)


def test_several_matched_roots_warn_and_keep_nearest_1550nm():
    def mismatch(lam):
        return (lam - 1.45) * (lam - 1.56) * (lam - 1.65)

    with pytest.warns(UserWarning, match="multiple phase-matched "
                      "wavelengths in bracket; returning the one closest to "
                      "1.55 um"):
        lam = _matched_wavelength(mismatch, (1.4, 1.7), "test wavelength",
                                  "phase", "a test")
    assert lam == pytest.approx(1.56, abs=1e-14)


def test_degeneracy_slope_sign(model):
    # heating shifts the degeneracy point to shorter wavelength
    lo = degenerate_wavelength(model, 9.217870197227, 20.0)
    hi = degenerate_wavelength(model, 9.217870197227, 30.0)
    assert hi < lo


def test_tuning_curve_branches(model):
    period = 9.217870197227
    pumps = np.array([0.7745, 0.775, 0.7755])
    curve = tuning_curve(model, period, 24.5, pumps)
    assert curve.signal.shape == pumps.shape
    kept = ~np.isnan(curve.signal)
    assert np.any(kept)
    # energy conservation on each solved point
    ws = omega_from_wavelength(curve.signal[kept])
    wi = omega_from_wavelength(curve.idler[kept])
    wp = omega_from_wavelength(pumps[kept])
    assert np.allclose(ws + wi, wp, rtol=0, atol=1e-9)


def test_material_file_roundtrip(model, tmp_path):
    from tests.conftest import bundled
    loaded = qpic.load_material(bundled("linbo3.material"))
    assert loaded.delta_n_h == pytest.approx(model.delta_n_h)
    assert index(loaded, "H", 1.55) == pytest.approx(index(model, "H", 1.55), abs=1e-15)
    assert index(loaded, "V", 1.55) == pytest.approx(index(model, "V", 1.55), abs=1e-15)


def test_material_file_bad_form(tmp_path):
    bad = tmp_path / "bad.material"
    bad.write_text("[ordinary]\nform = no-such-fit\na = 1 2 3 4\nb = 1 2 3\n")
    with pytest.raises((ValidationError, qpic.NetlistError)):
        load_material(bad)


def _bundled_material_with(tmp_path, old, new):
    from tests.conftest import bundled
    text = bundled("linbo3.material").read_text()
    assert old in text
    path = tmp_path / "edited.material"
    path.write_text(text.replace(old, new, 1))
    return path


@pytest.mark.parametrize("old, new, where", [
    ("a = 4.9048", "a = nan", "line 8, column 5: value must be finite"),
    ("-0.89e-8", "inf", "line 14, column 5: value must be finite"),
    ("delta_n_v = 0.01", "delta_n_v = -inf",
     "line 18, column 13: value must be finite"),
], ids=["nan-a", "inf-b", "inf-delta-n"])
def test_material_file_rejects_non_finite(tmp_path, old, new, where):
    path = _bundled_material_with(tmp_path, old, new)
    with pytest.raises(ValidationError, match=re.escape(f"{path}: {where}")):
        load_material(path)


@pytest.mark.parametrize("old, new, where", [
    ("name =", "name = again\nname =", "line 5: duplicate key 'name'"),
    ("[waveguide]", "[waveguide]\n[Ordinary]",
     "line 17: duplicate section [ordinary]"),
], ids=["repeated-name", "duplicate-section"])
def test_material_file_rejects_repeats(tmp_path, old, new, where):
    path = _bundled_material_with(tmp_path, old, new)
    with pytest.raises(ValidationError, match=re.escape(f"{path}: {where}")):
        load_material(path)


@pytest.mark.parametrize("old, new, where", [
    ("form = jundt-1997", "form = nope",
     "line 12: unknown Sellmeier form 'nope'"),
    ("a = 4.9048 0.11775", "a = 4.9048",
     "line 7: form 'edwards-lawrence-1984' needs 4 'a'"),
    ("delta_n_h = 0.01", "delta_n_h = 0.5",
     "line 17: delta_n_h = 0.5 outside [0, 0.05]"),
    ("delta_n_v = 0.01", "delta_n_v = -0.01",
     "line 18: delta_n_v = -0.01 outside [0, 0.05]"),
], ids=["unknown-form", "coefficient-count", "delta-n-h", "delta-n-v"])
def test_material_file_range_errors_name_the_line(tmp_path, old, new, where):
    path = _bundled_material_with(tmp_path, old, new)
    with pytest.raises(qpic.NetlistError,
                       match=re.escape(f"{path}: {where}")):
        load_material(path)


def test_delta_n_bounds(model):
    with pytest.raises(ValidationError):
        MaterialModel(model.ordinary, model.extraordinary,
                      delta_n_h=0.2, delta_n_v=0.01)


@pytest.mark.parametrize("period", [0.0, -9.0])
def test_phase_matching_rejects_non_positive_period(model, period):
    # 0 used to divide by zero and -9 to end in "no phase-matching"
    w = float(omega_from_wavelength(1.55))
    for call in (lambda: degenerate_wavelength(model, period),
                 lambda: pdc_mismatch(model, period, w, w),
                 lambda: tuning_curve(model, period, 24.5, [0.775])):
        with pytest.raises(RangeError,
                           match=f"poling period {period} um must be > 0"):
            call()


def test_tuning_curve_checks_every_pump(model):
    with pytest.raises(RangeError, match=re.escape(
            "pump wavelength 0.5 um outside [0.6, 0.9] um")):
        tuning_curve(model, 9.217870197227, 24.5, [0.5, 0.6, 0.7])
