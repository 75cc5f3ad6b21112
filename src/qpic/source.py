"""Joint spectral amplitude of the type-II downconversion source.

The two-photon amplitude of a pulsed, quasi-phase-matched type-II process
factorises into a Gaussian pump envelope in the total frequency and a
sinc phase-matching profile:

    F(w_s, w_i) = C exp[-(w_s + w_i - w_p)^2 / (2 Omega^2)]
                    * Sinc(dk L / 2) * exp(i dk L / 2),

with Sinc(x) = sin(x)/x, dk the type-II mismatch and L the poled length.
``SourceSpec`` holds w_p, tau = 1/Omega, the poling period and L, the
netlist's [source] keys.
Because the pump envelope pins w_s + w_i to a band that is orders of
magnitude narrower than the phase-matching band for long pulses, the
amplitude is sampled on a rotated grid: one axis is the total frequency
Sigma = w_s + w_i, the other the difference d = w_s - w_i. Signal/idler
exchange is then an exact reversal of the difference axis, and quadrature
weights carry the Jacobian 1/2 of the change of variables.
"""

from __future__ import annotations

import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .dispersion import (PUMP_LAMBDA_MAX, PUMP_LAMBDA_MIN, MaterialModel,
                         _bracketed_roots, _check_band, _check_temperature,
                         _grating, group_velocity, omega_from_wavelength,
                         pdc_mismatch, wavelength_from_omega)
from .errors import NumericalError, RangeError, ValidationError, count, real

SUM_SIGMA_FACTOR = 6.0  # pump-axis half width, in units of Omega
SINC_LOBES = 4  # cover the side-lobes out to the 4th zero
RIDGE_SEARCH = 50.0  # rad/ps, half width of the ridge search on d
MARGINAL_POINTS = 2048  # frequency samples of each marginal spectrum
CHUNK_POINTS = 4096  # grid points per block of grid rows, see _row_blocks
DEFAULT_GRID = 512  # points of each GridSpec axis and of a scan's diff axis


@dataclass(frozen=True)
class SourceSpec:
    """One pump pulse on one poled section; the fields are the [source]
    keys. Lengths in um, tau in ps; the pump's spectral envelope is
    exp[-(w - w_p)^2 / (2 Omega^2)] with Omega = 1/tau (rad/ps)."""

    pump_wavelength: float
    pulse_duration: float
    poling_period: float
    pdc_length: float

    def __post_init__(self):
        if not real(self.pulse_duration, "source pulse_duration") > 0.0:
            raise RangeError(
                f"pulse duration {self.pulse_duration} ps must be > 0")
        _check_band(self.pump_wavelength, (PUMP_LAMBDA_MIN, PUMP_LAMBDA_MAX),
                    "pump wavelength {} um outside")
        _grating(real(self.poling_period, "source poling_period"))
        if not real(self.pdc_length, "source pdc_length") > 0.0:
            raise RangeError(f"pdc length {self.pdc_length} um must be > 0")

    @property
    def bandwidth(self) -> float:
        """Gaussian spectral std Omega = 1/tau, rad/ps."""
        return 1.0 / self.pulse_duration

    @property
    def omega_pump(self) -> float:
        return float(omega_from_wavelength(self.pump_wavelength))


@dataclass(frozen=True)
class GridSpec:
    """Points per axis of the rotated (sum, difference) frequency plane.
    ``build_jsa`` sets the spans from the source: 6 Omega along the sum
    axis; along the difference axis the 4th sinc zero of the walk-off over
    pdc_length, plus the ridge's offset and its drift over the sum span.
    ``rule``: the inputs of ``detection.scan_grid``'s size_sum, if any."""

    size_sum: int = DEFAULT_GRID
    size_diff: int = DEFAULT_GRID
    rule: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        size_sum = count(self.size_sum, "grid size_sum", 3)
        count(self.size_diff, f"grid size_sum {size_sum} x size_diff", 3,
              size_sum)
        if not isinstance(self.rule, Mapping):
            raise ValidationError(f"grid rule must be a mapping of key to "
                                  f"value, got {self.rule!r}")


@dataclass
class JointSpectralAmplitude:
    """Normalised two-photon amplitude on the rotated frequency grid.

    ``amplitude[i, j]`` is F at Sigma = sum_grid[i], d = diff_grid[j], so
    the signal frequency is (Sigma + d)/2 and the idler (Sigma - d)/2.
    No weights are stored: the quadrature weight of grid point (i, j) is
    0.5 w_sum[i] w_diff[j], the trapezoid weights of the two axes times
    the Jacobian 1/2 (``_quadrature_weights``), and
    sum(weights * |amplitude|^2) == 1.
    """

    sum_grid: np.ndarray
    diff_grid: np.ndarray
    amplitude: np.ndarray
    normalization: float  # C, applied to the raw product form
    temperature: float
    ridge_offset: float = 0.0  # difference-axis centre of the sinc ridge
    meta: dict = field(default_factory=dict)

    @property
    def norm(self) -> float:
        return float(np.sum(_quadrature_weights(self.sum_grid, self.diff_grid)
                            * np.abs(self.amplitude) ** 2))


def _trapezoid_weights(grid):
    w = np.full(grid.shape, grid[1] - grid[0], dtype=float)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _quadrature_weights(sum_grid, diff_grid, rows=slice(None)):
    """Weights of the grid ``rows``, shape (rows, size_diff): 0.5 times
    the outer product of the two axes' trapezoid weights, so any rows give
    the floats of the whole grid's weights there. Halving one factor is
    exact, so no second array of the grid's size is made."""
    return np.outer(0.5 * _trapezoid_weights(sum_grid)[rows],
                    _trapezoid_weights(diff_grid))


def _row_blocks(n: int, width: int):
    """Slices of ``n`` rows of ``width`` points in blocks of max(1,
    CHUNK_POINTS // width) rows, the blocks of every pass over a grid. A
    scan chunk holds ~26-44 arrays of a block; 2048 points scan 20% slower."""
    step = max(1, CHUNK_POINTS // width)
    return (slice(lo, lo + step) for lo in range(0, n, step))


def _ridge_offset(model, source, temperature):
    """Difference-axis location of the phase-matching ridge at Sigma = w_p."""
    def mismatch(d, omega_p):
        return pdc_mismatch(model, source.poling_period, (omega_p + d) / 2.0,
                            (omega_p - d) / 2.0, temperature)

    d_star, found = _bracketed_roots(
        mismatch, [source.omega_pump], -RIDGE_SEARCH, RIDGE_SEARCH, 1001, 0.0,
        "pump lines", xtol=1e-12)
    if not found[0]:
        warnings.warn("phase-matching ridge not found near the pump line; "
                      "centring the difference axis on zero", stacklevel=3)
        return 0.0
    return float(d_star[0])


def build_jsa(model: MaterialModel, source: SourceSpec,
              grid: GridSpec | None = None,
              temperature=None) -> JointSpectralAmplitude:
    """Sample and normalise the joint spectral amplitude.

    The raw product form is filled into one preallocated array by
    ``_row_blocks``, each with its own frequencies, mismatch and sinc-exp
    factor, so no other full-grid array exists while it fills. Every value
    is elementwise, so the blocks give the bits of a whole-grid
    evaluation, as do the per-block weights on |raw|^2. The norm sums the
    whole array as one expression, so C is the same float; ``raw`` is then
    scaled in place. ``meta`` records the raw norm, the pump-axis
    edge/peak ratio (~1e-8: the envelope is exp(-18) at 6 Omega), both
    half widths, the sum rows and the grid's ``rule``.

    The source sets the spans (see ``GridSpec``). RangeError, before any
    grid array exists, when Omega^2 is not finite and positive, or the
    spans, an infinite lobe span among them, reach a non-positive
    frequency (the axes are exact at their ends); NumericalError when the
    amplitude integral is not positive and finite.
    """
    if grid is None:
        grid = GridSpec()
    t = _check_temperature(temperature)
    omega_p = source.omega_pump
    omega_bar = omega_p / 2.0
    bw = source.bandwidth
    if not 0.0 < bw * bw < np.inf:
        raise RangeError(f"source pulse_duration {source.pulse_duration} "
                         f"ps: (1/pulse_duration)^2 not finite and positive")

    s_half = SUM_SIGMA_FACTOR * bw

    d_star = _ridge_offset(model, source, t)
    # group-velocity walk-off sets the sinc lobe spacing along d
    vg_h = group_velocity(model, "H", omega_bar + d_star / 2.0, t)
    vg_v = group_velocity(model, "V", omega_bar - d_star / 2.0, t)
    vg_p = group_velocity(model, "H", omega_p, t)
    walkoff = abs(1.0 / vg_h - 1.0 / vg_v)
    spread = walkoff * source.pdc_length  # 0 where it underflows
    lobe_span = 4.0 * SINC_LOBES * np.pi / spread if spread else np.inf
    # the ridge drifts along d as Sigma moves off the pump line
    tilt = abs(2.0 * (1.0 / vg_p - (1.0 / vg_h + 1.0 / vg_v) / 2.0)
               / (1.0 / vg_h - 1.0 / vg_v))
    d_half = abs(d_star) + lobe_span + tilt * s_half
    if not (omega_p - s_half) - d_half > 0.0:
        raise RangeError(
            f"difference-axis span reaches non-positive frequencies; "
            f"it widens as pdc_length ({source.pdc_length} um) or "
            f"pulse_duration ({source.pulse_duration} ps) shrinks")

    sum_grid = np.linspace(omega_p - s_half, omega_p + s_half, grid.size_sum)
    diff_grid = np.linspace(-d_half, d_half, grid.size_diff)
    # force exact antisymmetry so signal/idler exchange is a pure reversal
    diff_grid = 0.5 * (diff_grid - diff_grid[::-1])

    envelope = np.exp(-((sum_grid - omega_p) ** 2) / (2.0 * bw ** 2))
    raw = np.empty((grid.size_sum, grid.size_diff), dtype=complex)
    for rows in _row_blocks(grid.size_sum, grid.size_diff):
        omega_s = (sum_grid[rows, None] + diff_grid[None, :]) / 2.0
        omega_i = (sum_grid[rows, None] - diff_grid[None, :]) / 2.0
        dk = pdc_mismatch(model, source.poling_period, omega_s, omega_i, t)
        u = dk * source.pdc_length / 2.0
        raw[rows] = envelope[rows, None] * np.sinc(u / np.pi) * np.exp(1j * u)

    mag2 = np.abs(raw)
    peak = float(np.max(mag2))
    edge = float(max(np.max(np.abs(raw[0, :])), np.max(np.abs(raw[-1, :]))))
    mag2 **= 2  # in place: the same floats, one full-grid array fewer
    for rows in _row_blocks(grid.size_sum, grid.size_diff):  # no weights grid
        mag2[rows] *= _quadrature_weights(sum_grid, diff_grid, rows)
    total = float(np.sum(mag2))
    del mag2
    if not np.isfinite(total) or total <= 0.0:
        raise NumericalError(
            "amplitude integral is not positive and finite on this grid")
    c = 1.0 / np.sqrt(total)
    raw *= c
    return JointSpectralAmplitude(
        sum_grid=sum_grid, diff_grid=diff_grid, amplitude=raw,
        normalization=c, temperature=t,
        ridge_offset=float(d_star),
        meta={"raw_norm": total, "edge_peak_ratio": edge / peak,
              "sum_half_width": float(s_half),
              "diff_half_width": float(d_half), "sum_rows": grid.size_sum,
              "sum_rule": dict(grid.rule)})


def jsa_exchange_asymmetry(jsa: JointSpectralAmplitude) -> float:
    """Quadrature-weighted L2 asymmetry of |F| under signal/idler exchange.

    The centre phase exp(i dk L / 2) is a pure group delay compensated by
    the interferometer, so the spectral shape alone is compared:
    || |F| - |F_exchanged| ||_2 / || F ||_2.
    The sums run over ``_row_blocks``, so no grid-sized array is made
    (within 1e-15 relative of one whole-grid sum).
    """
    odd = total = 0.0
    for rows in _row_blocks(len(jsa.sum_grid), len(jsa.diff_grid)):
        weights = _quadrature_weights(jsa.sum_grid, jsa.diff_grid, rows)
        mag = np.abs(jsa.amplitude[rows])
        odd += float(np.sum(weights * (mag - mag[:, ::-1]) ** 2))
        total += float(np.sum(weights * mag ** 2))
    return float(np.sqrt(odd) / np.sqrt(total))


@dataclass(frozen=True)
class SpectralDensity:
    """Single-photon marginal: density over angular frequency plus a
    wavelength-parameterised, peak-normalised profile."""

    omega: np.ndarray  # rad/ps
    density: np.ndarray  # 1/(rad/ps), integrates to 1
    wavelength: np.ndarray  # um, decreasing with omega
    intensity: np.ndarray  # density / max(density)

    @property
    def peak_wavelength(self) -> float:
        return float(self.wavelength[int(np.argmax(self.density))])


@dataclass(frozen=True)
class MarginalSpectra:
    signal: SpectralDensity
    idler: SpectralDensity


def marginal_spectra(jsa: JointSpectralAmplitude) -> MarginalSpectra:
    """Marginal intensity spectra of the two photons.

    Integrates |F|^2 over the other photon's frequency; rows of the
    rotated grid are resampled onto a common frequency axis by linear
    interpolation. Each density integrates to 1 up to interpolation error.
    """
    w_sum = _trapezoid_weights(jsa.sum_grid)
    half_sum = jsa.sum_grid / 2.0
    half_diff = jsa.diff_grid / 2.0
    photons = []  # (sign, omega, density): the signal, then the idler
    for sign in (+1, -1):
        lo = float(half_sum[0] + min(sign * half_diff[0],
                                     sign * half_diff[-1]))
        hi = float(half_sum[-1] + max(sign * half_diff[0],
                                      sign * half_diff[-1]))
        photons.append((sign, np.linspace(lo, hi, MARGINAL_POINTS),
                        np.zeros(MARGINAL_POINTS)))
    # at fixed w_s the other photon's measure dw_i equals dSigma, so a
    # marginal is a plain Sigma sum along resampled rows: one pass for both
    for r in range(len(jsa.sum_grid)):
        mag2 = np.abs(jsa.amplitude[r]) ** 2
        for sign, omega, acc in photons:
            d_needed = sign * (2.0 * omega - jsa.sum_grid[r])
            acc += w_sum[r] * np.interp(d_needed, jsa.diff_grid, mag2,
                                        left=0.0, right=0.0)
    signal, idler = (SpectralDensity(
        omega=omega, density=acc,
        wavelength=np.asarray(wavelength_from_omega(omega)),
        intensity=acc / float(np.max(acc))) for _, omega, acc in photons)
    return MarginalSpectra(signal=signal, idler=idler)
