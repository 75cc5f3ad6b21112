"""Biphoton joint spectral amplitude on the rotated (sum, difference) grid."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import qpic
from qpic import source
from qpic.dispersion import pdc_mismatch
from qpic.source import (GridSpec, SourceSpec, _quadrature_weights,
                         _ridge_offset, _trapezoid_weights, build_jsa,
                         jsa_exchange_asymmetry, marginal_spectra)


def test_normalized(jsa_medium):
    assert jsa_medium.norm == pytest.approx(1.0, abs=1e-12)


def test_grid_shapes(jsa_medium):
    assert jsa_medium.amplitude.shape == (256, 256)
    assert jsa_medium.sum_grid.shape == (256,)
    assert jsa_medium.diff_grid.shape == (256,)
    weights = _quadrature_weights(jsa_medium.sum_grid, jsa_medium.diff_grid)
    assert weights.shape == (256, 256)
    assert np.all(weights >= 0)
    assert _quadrature_weights(jsa_medium.sum_grid, jsa_medium.diff_grid,
                               slice(7, 12)).shape == (5, 256)


def test_diff_grid_exactly_antisymmetric(jsa_medium):
    d = jsa_medium.diff_grid
    assert np.array_equal(d, -d[::-1])


def test_sum_grid_centred_on_pump(jsa_medium):
    centre = 0.5 * (jsa_medium.sum_grid[0] + jsa_medium.sum_grid[-1])
    assert centre == pytest.approx(jsa_medium.source.omega_pump, rel=1e-12)


@pytest.mark.parametrize("size, chunk_points", [
    ((512, 512), None),
    ((37, 23), 5 * 23),  # blocks of 5 rows: the last one holds 2
], ids=["512x512", "37x23-partial-block"])
def test_row_blocks_match_whole_grid(chip, monkeypatch, size, chunk_points):
    if chunk_points is not None:
        monkeypatch.setattr(source, "CHUNK_POINTS", chunk_points)
    jsa = build_jsa(chip.model, chip.source, GridSpec(*size))
    # the whole-grid evaluation the row blocks must reproduce bit for bit
    s, d = jsa.sum_grid, jsa.diff_grid
    omega_s = (s[:, None] + d[None, :]) / 2.0
    omega_i = (s[:, None] - d[None, :]) / 2.0
    dk = pdc_mismatch(chip.model, chip.source.poling_period, omega_s, omega_i,
                      jsa.temperature)
    u = dk * chip.source.pdc_length / 2.0
    bw = chip.source.bandwidth
    envelope = np.exp(-((s - chip.source.omega_pump) ** 2) / (2.0 * bw ** 2))
    raw = envelope[:, None] * np.sinc(u / np.pi) * np.exp(1j * u)
    weights = 0.5 * np.outer(_trapezoid_weights(s), _trapezoid_weights(d))
    total = float(np.sum(weights * np.abs(raw) ** 2))
    c = 1.0 / np.sqrt(total)
    # the weights of any rows are the floats of the whole grid's weights
    assert np.array_equal(_quadrature_weights(s, d), weights)
    assert np.array_equal(_quadrature_weights(s, d, slice(3, 8)),
                          weights[3:8])
    assert jsa.normalization == c
    assert jsa.meta["raw_norm"] == total
    assert np.array_equal(jsa.amplitude, c * raw)


def test_build_jsa_keeps_no_full_grid_transient(chip):
    """At the production grid the traced memory peak of build_jsa stays
    below 10 MiB: the result (a 4 MiB amplitude and its two axes) plus
    the norm's weights and float transients; frequencies, mismatch and
    the sinc-exp factor exist for one block of rows at a time."""
    tracemalloc.start()
    try:
        jsa = build_jsa(chip.model, chip.source,
                        GridSpec(512, 512))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert jsa.amplitude.nbytes == 4 * 2 ** 20
    assert sum(v.nbytes for v in vars(jsa).values()
               if isinstance(v, np.ndarray)) == 4 * 2 ** 20 + 2 * 512 * 8
    assert peak < 10 * 2 ** 20


def test_edge_peak_ratio_recorded(jsa_medium):
    mag = np.abs(jsa_medium.amplitude)
    edge = max(np.max(mag[0, :]), np.max(mag[-1, :]))
    ratio = jsa_medium.meta["edge_peak_ratio"]
    assert ratio == pytest.approx(edge / np.max(mag), rel=1e-12)
    assert ratio < 1e-3


@pytest.mark.parametrize("pdc_length, message", [
    (50.0, "difference-axis span reaches non-positive frequencies; it "
           "widens as pdc_length (50.0 um) or pulse_duration (1000.0 ps) "
           "shrinks"),
    (100.0, "wavelength 6.5"),  # signal and idler beyond 2 um
], ids=["non-positive", "sellmeier-box"])
def test_grid_errors_raised_from_row_blocks(chip, monkeypatch, pdc_length,
                                            message):
    """A short poled section widens the difference axis past what the
    model covers; blocks of 4 rows raise the error of one block of the
    whole grid."""
    spec = dataclasses.replace(chip.source, pdc_length=pdc_length)
    errors = []
    for rows in (4, 64):
        monkeypatch.setattr(source, "CHUNK_POINTS", rows * 64)
        with pytest.raises(qpic.RangeError) as info:
            build_jsa(chip.model, spec, GridSpec(64, 64))
        errors.append(str(info.value))
    assert errors[0] == errors[1]
    assert errors[0].startswith(message)


def test_peak_sits_on_phase_matching_ridge(jsa_medium):
    mag = np.abs(jsa_medium.amplitude)
    i, j = np.unravel_index(np.argmax(mag), mag.shape)
    assert i in (127, 128)
    jc = np.argmin(np.abs(jsa_medium.diff_grid - jsa_medium.ridge_offset))
    assert abs(j - jc) <= 1


def test_phase_equals_accumulated_mismatch(chip, jsa_medium):
    # on the central ridge the amplitude phase is mismatch * length / 2
    i = 128
    for j in (100, 128, 156):
        ws = 0.5 * (jsa_medium.sum_grid[i] + jsa_medium.diff_grid[j])
        wi = 0.5 * (jsa_medium.sum_grid[i] - jsa_medium.diff_grid[j])
        u = pdc_mismatch(chip.model, chip.source.poling_period, ws, wi) \
            * chip.source.pdc_length / 2.0
        got = np.angle(jsa_medium.amplitude[i, j])
        want = np.mod(u + np.pi, 2 * np.pi) - np.pi
        if np.cos(want) > 0:  # stay off the sinc sign flips
            assert got == pytest.approx(want, abs=1e-9)


def test_long_pulse_nearly_exchange_symmetric(jsa_medium):
    assert jsa_exchange_asymmetry(jsa_medium) < 0.05


def test_short_pulse_strongly_asymmetric(chip):
    pump = dataclasses.replace(chip.source, pulse_duration=1.0)
    jsa = build_jsa(chip.model, pump, GridSpec(256, 256))
    assert jsa_exchange_asymmetry(jsa) > 0.5


def test_short_pulse_sum_profile_is_pump_gaussian(chip):
    pump = dataclasses.replace(chip.source, pulse_duration=1.0)
    jsa = build_jsa(chip.model, pump, GridSpec(256, 256))
    prof = np.sum(_quadrature_weights(jsa.sum_grid, jsa.diff_grid)
                  * np.abs(jsa.amplitude) ** 2, axis=1)
    s = jsa.sum_grid
    mu = np.sum(s * prof) / np.sum(prof)
    sigma = np.sqrt(np.sum((s - mu) ** 2 * prof) / np.sum(prof))
    # intensity profile of a Gaussian pulse: sigma = bandwidth / sqrt(2)
    assert sigma == pytest.approx(pump.bandwidth / np.sqrt(2), rel=1e-3)
    assert mu == pytest.approx(pump.omega_pump, abs=1e-3 * pump.bandwidth)


def test_refinement_norm_drift(chip):
    coarse = build_jsa(chip.model, chip.source, GridSpec(128, 128))
    fine = build_jsa(chip.model, chip.source, GridSpec(256, 256))
    drift = abs(fine.meta["raw_norm"] - coarse.meta["raw_norm"]) / fine.meta["raw_norm"]
    assert drift < 1e-4


def test_marginals_normalized_and_peaked(jsa_medium):
    m = marginal_spectra(jsa_medium)
    for sd in (m.signal, m.idler):
        total = np.trapezoid(sd.density, sd.omega)
        assert total == pytest.approx(1.0, abs=1e-4)
        assert sd.peak_wavelength == pytest.approx(1.55, abs=1e-3)
        assert np.all(sd.density >= 0)


def test_marginal_width_scales_inversely_with_length(chip, jsa_medium):
    half = dataclasses.replace(chip.source, pdc_length=10350.0)
    jh = build_jsa(chip.model, half, GridSpec(256, 256))
    def width(jsa):
        sd = marginal_spectra(jsa).signal
        return qpic.peak_fwhm(sd.wavelength[::-1], sd.intensity[::-1])
    ratio = width(jsa_medium) / width(jh)
    assert ratio == pytest.approx(0.5, abs=0.02)


def test_long_waveguide_marginal_below_nanometre(chip):
    spec = dataclasses.replace(chip.source, pdc_length=30000.0)
    jsa = build_jsa(chip.model, spec, GridSpec(256, 256))
    sd = marginal_spectra(jsa).signal
    width_nm = qpic.peak_fwhm(sd.wavelength[::-1], sd.intensity[::-1]) * 1e3
    assert width_nm < 1.0


def test_ridge_not_found_warns_and_centres_on_zero(chip):
    spec = dataclasses.replace(chip.source, poling_period=5.0)
    with pytest.warns(UserWarning, match="ridge not found"):
        d_star = _ridge_offset(chip.model, spec, 24.5)
    assert d_star == 0.0


def test_ridge_offset_takes_root_nearest_zero(chip, monkeypatch):
    def three_ridges(model, poling_period, omega_s, omega_i, temperature):
        d = omega_s - omega_i
        return (d + 30.0) * (d + 4.0) * (d - 7.0)

    monkeypatch.setattr(source, "pdc_mismatch", three_ridges)
    d_star = _ridge_offset(chip.model, chip.source, 24.5)
    assert d_star == pytest.approx(-4.0, abs=1e-11)


def test_pump_spec_derived_quantities():
    pump = SourceSpec(pump_wavelength=0.775, pulse_duration=2.0,
                      poling_period=9.2, pdc_length=20700.0)
    assert pump.bandwidth == pytest.approx(0.5)
    assert pump.omega_pump == pytest.approx(
        qpic.omega_from_wavelength(0.775), rel=1e-14)


@pytest.mark.parametrize("field, value, message", [
    ("pump_wavelength", 0.5, "pump wavelength 0.5 um outside [0.6, 0.9] um"),
    ("pulse_duration", 0.0, "pulse duration 0.0 ps must be > 0"),
    ("poling_period", -1.0, "poling period -1.0 um must be > 0"),
    ("pdc_length", float("nan"), "source pdc_length must be finite, got nan"),
], ids=["pump", "tau", "poling", "pdc-length-nan"])
def test_source_spec_range_checks(chip, field, value, message):
    with pytest.raises(qpic.RangeError) as info:
        dataclasses.replace(chip.source, **{field: value})
    assert str(info.value) == message


@pytest.mark.parametrize("field", ["pulse_duration", "pdc_length",
                                   "poling_period"])
def test_source_spec_rejects_infinite(chip, field, monkeypatch):
    # an infinite duration or length reached build_jsa, which warned and
    # raised a numerical error; an infinite period gave no grating
    def no_jsa(*args, **kwargs):
        raise AssertionError("JSA built from a non-finite source")

    monkeypatch.setattr(source, "_ridge_offset", no_jsa)
    with pytest.raises(qpic.RangeError,
                       match=f"source {field} must be finite, got inf"):
        build_jsa(chip.model, dataclasses.replace(chip.source,
                                                  **{field: np.inf}))


@pytest.mark.parametrize("sizes", [(5.5, 64), (64, "64"), (64.0, 64)])
def test_grid_spec_rejects_non_integer_sizes(sizes):
    with pytest.raises(qpic.ValidationError, match="is not an int >= 3"):
        GridSpec(*sizes)
    assert GridSpec(np.int64(5), 5).size_sum == 5
