"""Coupled-mode propagation in poled and electro-optic two-mode sections.

Closed-form evolution of two co-propagating amplitudes (TE, TM or the two
channels of a directional coupler) under constant coupling kappa and
phase mismatch dbeta:

    A_te(z) = {A_te(0) [cos sz - i (dbeta/2s) sin sz]
               - i (kappa/s) A_tm(0) sin sz} e^{+i dbeta z / 2}
    A_tm(z) = {A_tm(0) [cos sz + i (dbeta/2s) sin sz]
               - i (kappa/s) A_te(0) sin sz} e^{-i dbeta z / 2}

with s = sqrt(kappa^2 + (dbeta/2)^2). Total power is conserved.

``_core_terms`` is the one propagator kernel: of stepwise-detuned
couplers (``compose_sections``, one section of which is the closed form
above), of ``conversion_fraction`` and of the chip's polarisation
converter (``elements.pc_matrix``). The tests keep the closed form
written out as an independent reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import keyfile
from .dispersion import (LAMBDA_MAX, LAMBDA_MIN, MaterialModel,
                         pc_matched_wavelength, pc_mismatch)
from .errors import NetlistError, NumericalError, RangeError, \
    ValidationError, axis, count, finite, real, reals
from .source import _row_blocks

PC_WINDOW_POINTS = 2001  # wavelengths of a conversion window


def _core_terms(kappa, dbeta, z):
    """(cos sz, (dbeta/2s) sin sz, (kappa/s) sin sz) of one section;
    RangeError, before any sin or cos, where the phase sz is not finite."""
    kappa, dbeta, z = (np.asarray(v, dtype=float) for v in (kappa, dbeta, z))
    with np.errstate(over="ignore"):  # an overflow is refused
        s = np.hypot(kappa, dbeta / 2.0)
        phase = finite(s * z, "section phase")
    s_safe = np.where(s == 0.0, 1.0, s)
    sinp = np.sin(phase)
    return np.cos(phase), (dbeta / 2.0) / s_safe * sinp, kappa / s_safe * sinp


def _symmetric_core(kappa, dbeta, z):
    # constant-coefficient propagator in the co-rotating frame; the frame
    # phases diag(e^{i dbeta z/2}, e^{-i dbeta z/2}) are applied outside
    cosp, d, b = _core_terms(kappa, dbeta, z)
    out = np.empty(cosp.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = cosp - 1j * d
    out[..., 0, 1] = -1j * b
    out[..., 1, 0] = -1j * b
    out[..., 1, 1] = cosp + 1j * d
    return out


def compose_sections(kappa, dbetas, length):
    """Transfer matrix of consecutive sections with stepwise detuning.

    The rotating frame accumulates continuously across the boundaries, so
    the result is diag(e^{i phi/2}, e^{-i phi/2}) applied to the product
    of the symmetric per-section cores, phi = sum(dbeta_k) * length.
    Broadcasts over arrays in ``kappa``, ``dbetas`` and ``length``.
    RangeError for a non-finite input or a negative length.
    """
    kappa, length = finite(kappa, "coupling"), finite(length, "section length")
    dbetas = [finite(d, "mismatch") for d in dbetas]
    if np.any(length < 0.0):
        raise RangeError("section length must be >= 0")
    total = None
    phi = 0.0
    for dbeta in dbetas:
        core = _symmetric_core(kappa, dbeta, length)
        total = core if total is None else core @ total
        phi = phi + dbeta * length
    if total is None:
        raise ValidationError("compose_sections needs at least one section")
    frame = np.zeros(total.shape, dtype=complex)
    frame[..., 0, 0] = np.exp(1j * phi / 2.0)
    frame[..., 1, 1] = np.exp(-1j * phi / 2.0)
    return frame @ total


def conversion_fraction(model: MaterialModel, poling_period: float,
                        length: float, kappa: float, wavelength,
                        temperature=None):
    """TE -> TM converted power fraction of a poled section.

    Equals (kappa/s)^2 sin^2(s L) with the wavelength-dependent mismatch
    of the conversion grating.
    """
    length, kappa = _check_section("section", length, kappa)
    lam = reals(wavelength, "wavelength")
    dk = np.asarray(pc_mismatch(model, poling_period, lam, temperature))
    frac = _core_terms(kappa, dk, length)[2] ** 2
    return frac if lam.ndim else float(frac)


def _check_section(label: str, length, coupling):
    """(length, coupling) of a coupled section as finite floats;
    RangeError unless the length is > 0 and the coupling >= 0."""
    length = real(length, f"{label} length")
    coupling = real(coupling, f"{label} coupling")
    if not length > 0.0:
        raise RangeError(f"{label} length {length} um must be > 0")
    if coupling < 0.0:
        raise RangeError(f"{label} coupling {coupling} rad/um must be >= 0")
    return length, coupling


class ConversionWindow(NamedTuple):
    """What ``pc_window`` returns; wavelengths in um."""

    centre: float  # the phase-matched wavelength
    fwhm: float  # of the sampled fraction, by ``peak_fwhm``
    wavelengths: np.ndarray
    fraction: np.ndarray  # converted TE -> TM power at each wavelength


def pc_window(model: MaterialModel, poling_period: float, length: float,
              kappa: float, temperature=None, wavelengths=None,
              n_points: int = PC_WINDOW_POINTS) -> ConversionWindow:
    """Conversion window of a poled section, its centre solved once.

    When no wavelength grid is given, one is centred on the matched
    wavelength and spans four times the estimated sinc width on each side
    in ``n_points`` (an int >= 3); RangeError when that window leaves the
    material's validity range (a converter too short for its window). The
    fraction is evaluated over the ``_row_blocks`` of the wavelengths.
    """
    length, kappa = _check_section("section", length, kappa)
    centre = pc_matched_wavelength(model, poling_period, temperature)
    if wavelengths is None:
        n_points = count(n_points, "n_points", 3)
        # FWHM of sin^2(dk L / 2)/..: dk L spans ~ 5.57 rad across half max
        h = centre * 1e-4
        slope = abs(pc_mismatch(model, poling_period, centre + h, temperature)
                    - pc_mismatch(model, poling_period, centre - h,
                                  temperature)) / (2.0 * h)
        # inf where length * slope underflows to 0
        fwhm = 2.0 * 2.783 / (length * slope) if length * slope else np.inf
        half = 4.0 * fwhm
        if not LAMBDA_MIN <= centre - half < centre + half <= LAMBDA_MAX:
            raise RangeError(
                f"converter length {length} um gives a conversion window "
                f"{centre - half:.6g} to {centre + half:.6g} um, outside the "
                f"validity range [{LAMBDA_MIN}, {LAMBDA_MAX}] um")
        wavelengths = np.linspace(centre - half, centre + half, n_points)
    else:
        wavelengths = reals(wavelengths, "wavelengths")
    frac = np.empty(wavelengths.shape)
    for rows in _row_blocks(frac.size, 1):
        frac.flat[rows] = conversion_fraction(
            model, poling_period, length, kappa, wavelengths.flat[rows],
            temperature)
    return ConversionWindow(centre, float(peak_fwhm(wavelengths, frac)),
                            wavelengths, frac)


def peak_fwhm(x, y):
    """Full width at half maximum of a single-peaked sampled curve.

    Linear interpolation on both flanks of the global maximum. x is an
    ``axis`` of at least one point, with one y per x (ValidationError).
    Raises NumericalError when either half-maximum crossing is outside the
    grid, and so for a NaN y: the curves passed here are computed, and a
    NaN in them is a numerical failure (CLI exit code 3).
    """
    x, y = axis(x, "peak width x", 1), reals(y, "peak width y")
    if x.shape != y.shape:
        raise ValidationError(f"peak width needs one y per x, got shapes "
                              f"{x.shape} and {y.shape}")
    i = int(np.argmax(y))
    half = y[i] / 2.0
    if i == 0 or i == len(y) - 1 or not max(y[0], y[-1]) <= half < y[i]:
        raise NumericalError("peak half-maximum crossings not bracketed by "
                             "the sampled grid")
    left, right = _level_crossings(x, y, i, half)
    return right - left


def _level_crossings(x, y, i, level):
    """(left, right) x where y, above ``level`` at index i, first falls to it
    walking outward, interpolated linearly; None for a flank that never does.
    """
    crossings = []
    for step, end in ((-1, 0), (1, len(y) - 1)):
        j = i
        while j != end and y[j] > level:
            j += step
        a, b = sorted((j, j - step))
        crossings.append(None if j == i or y[j] > level else
                         x[a] + (x[b] - x[a]) * (level - y[a]) / (y[b] - y[a]))
    return crossings


EO_BS_DBETA_PER_VOLT = 2e-5  # rad/(um V), of each 'eobs' section


def switch_map(kappa_c: float, half_length: float, u1_values, u2_values,
               dbeta_per_volt: float | None = None):
    """Bar-state power of a two-section electro-optic coupler vs voltages.

    Returns an array of shape (len(u1), len(u2)) with the power staying in
    the launch channel after sections driven at u1 then u2. The coupler
    takes the range checks of an 'eobs' element; voltages not a non-empty
    1-D list raise ValidationError, and a non-finite input or a map over
    ``count``'s ceiling RangeError. The map is evaluated over the
    ``_row_blocks`` of its u1 rows, so no pass holds the whole stack.
    """
    half_length, kappa_c = _check_section("switch map", half_length, kappa_c)
    dbeta_per_volt = real(EO_BS_DBETA_PER_VOLT if dbeta_per_volt is None
                          else dbeta_per_volt, "switch map: dbeta_per_volt")
    u1, u2 = (finite(u, f"switch map {name}", 1, 1)
              for name, u in [("u1", u1_values), ("u2", u2_values)])
    count(len(u2), f"switch map of {len(u1)} u1 voltages x u2 voltages", 1,
          len(u1))
    with np.errstate(over="ignore"):  # an inf is refused before any block
        d1, d2 = (finite(dbeta_per_volt * u, "mismatch")
                  for u in (u1[:, None], u2[None, :]))
    bar = np.empty((len(u1), len(u2)))
    for rows in _row_blocks(len(u1), len(u2)):
        total = compose_sections(kappa_c, (d1[rows], d2), half_length)
        bar[rows] = np.abs(total[..., 0, 0]) ** 2
    return bar


# ---------------------------------------------------------------------------
# directional-coupler splitting model and fit

@dataclass(frozen=True)
class CouplerFit:
    """Per-polarisation sin^2 model of a coupler's unwanted-port ratio.

    ratio(L_c) = sin^2( pi (L_c - offset) / (2 beat) ), zero at the
    optimum length ``offset`` and unity one beat length later.
    """

    beat_te: float
    offset_te: float
    beat_tm: float
    offset_tm: float

    def __post_init__(self):
        for f in fields(self):
            real(getattr(self, f.name), f"coupler fit {f.name}")
        if self.beat_te <= 0.0 or self.beat_tm <= 0.0:
            raise RangeError("beat lengths must be > 0")


def _ratio_model(length, beat, offset):
    with np.errstate(over="ignore"):  # refused before the sin if it overflows
        theta = np.pi * (length - offset) / (2.0 * beat)
    return np.sin(finite(theta, "coupler phase")) ** 2


def splitting_ratio(fit: CouplerFit, coupler_length, pol: str):
    """Unwanted-port power fraction at a given coupler length, or at each
    of an array of them; RangeError for a length < 0."""
    length = finite(coupler_length, "coupler length")
    if np.any(length < 0.0):
        raise RangeError(f"coupler length must be >= 0 um, got "
                         f"{np.min(length)}")
    if pol == "H":
        r = _ratio_model(length, fit.beat_te, fit.offset_te)
    elif pol == "V":
        r = _ratio_model(length, fit.beat_tm, fit.offset_tm)
    else:
        raise ValidationError(f"polarisation must be 'H' or 'V', got {pol!r}")
    return r if length.ndim else float(r)


FIT_MAX_ITER = 100  # Levenberg-Marquardt steps per branch; 5-12 suffice
FIT_MAX_DAMPING = 1e16
_EPS = np.finfo(float).eps


def _fit_branch(lengths, ratios):
    """Least-squares (beat, offset) of one polarisation's ratio table.

    Projected Levenberg-Marquardt (Marquardt 1963; Nocedal & Wright,
    Numerical Optimization, ch. 10) with the model's analytic Jacobian:
    each trial step is clipped into the box, taken only if the cost does
    not rise, and the fit stops once every step component is within
    4 eps of its parameter. NumericalError when the normal matrix is
    singular, the damping or the step count runs out, or the fit ends on
    a bound of the box, where the table does not determine it (a flat
    table, for one).
    """
    lengths = reals(lengths, "coupler fit lengths", 1, 3)
    ratios = reals(ratios, "splitting ratios")
    if not np.all(np.isfinite(lengths)):
        raise ValidationError("coupler lengths must be finite")
    if not np.all((ratios >= 0.0) & (ratios <= 1.0)):
        raise ValidationError("splitting ratios must lie in [0, 1]")
    span = lengths.max() - lengths.min()
    lo = np.array([1e-3, lengths.min() - span])
    hi = np.array([1e5, lengths.max() + span])
    p = np.array([max(span, 1.0), lengths[int(np.argmin(ratios))]])
    damping = 1e-3
    for _ in range(FIT_MAX_ITER):
        theta = np.pi * (lengths - p[1]) / (2.0 * p[0])
        r = np.sin(theta) ** 2 - ratios
        jac = -np.sin(2.0 * theta) * np.stack(
            [theta / p[0], np.full_like(theta, np.pi / (2.0 * p[0]))])
        normal = jac @ jac.T
        grad = jac @ r
        if not (np.linalg.det(normal)
                > 4.0 * _EPS * normal[0, 0] * normal[1, 1]):
            raise NumericalError(f"coupler fit: singular normal matrix at "
                                 f"beat {p[0]:.17g} um, "
                                 f"offset {p[1]:.17g} um")
        while True:
            trial = np.clip(p - np.linalg.solve(
                normal + damping * np.diag(np.diag(normal)), grad), lo, hi)
            step = trial - p
            # cost change without cancellation: sin^2 x - sin^2 y =
            # sin(x - y) sin(x + y), and theta's change from the step alone
            dtheta = -np.pi * (p[0] * step[1] + step[0] * (lengths - p[1])) \
                / (2.0 * p[0] * trial[0])
            dr = np.sin(dtheta) * np.sin(2.0 * theta + dtheta)
            if dr @ (2.0 * r + dr) <= 0.0:
                break
            damping *= 10.0
            if damping > FIT_MAX_DAMPING:
                raise NumericalError("coupler fit: no step lowers the cost")
        p = trial
        damping /= 10.0
        if np.all(np.abs(step) <= 4.0 * _EPS * np.abs(p)):
            if np.any((p == lo) | (p == hi)):
                raise NumericalError(
                    f"coupler fit ends on a bound (beat {p[0]:.17g} um, "
                    f"offset {p[1]:.17g} um): the ratios do not determine "
                    f"the model")
            return float(p[0]), float(p[1])
    raise NumericalError(f"coupler fit did not converge in {FIT_MAX_ITER} "
                         f"steps")


def fit_coupler(lengths_te, ratios_te, lengths_tm, ratios_tm) -> CouplerFit:
    """Least-squares fit of the sin^2 model, one branch per polarisation.
    Each branch needs as many ratios as lengths (ValidationError)."""
    for pol, lengths, ratios in (("TE", lengths_te, ratios_te),
                                 ("TM", lengths_tm, ratios_tm)):
        if np.shape(lengths) != np.shape(ratios):
            raise ValidationError(
                f"coupler fit: {pol} has {np.shape(lengths)} lengths but "
                f"{np.shape(ratios)} ratios")
    beat_te, offset_te = _fit_branch(lengths_te, ratios_te)
    beat_tm, offset_tm = _fit_branch(lengths_tm, ratios_tm)
    return CouplerFit(beat_te=beat_te, offset_te=offset_te,
                      beat_tm=beat_tm, offset_tm=offset_tm)


def pbs_angles(fit: CouplerFit, coupler_length: float):
    """Map measured splitting ratios to splitter angles (alpha, beta).

    The complement of each unwanted-port ratio is the designed routing
    probability: sin^2 alpha = 1 - r_H, sin^2 beta = 1 - r_V.
    """
    length = real(coupler_length, "coupler length")
    r_h = splitting_ratio(fit, length, "H")
    r_v = splitting_ratio(fit, length, "V")
    return (math.asin(math.sqrt(1.0 - r_h)),
            math.asin(math.sqrt(1.0 - r_v)))


def save_coupler_fit(fit: CouplerFit, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"beat_te = {fit.beat_te!r}\n")
        fh.write(f"offset_te = {fit.offset_te!r}\n")
        fh.write(f"beat_tm = {fit.beat_tm!r}\n")
        fh.write(f"offset_tm = {fit.offset_tm!r}\n")


def load_coupler_fit(path) -> CouplerFit:
    """Read a ``save_coupler_fit`` file: the four CouplerFit fields as
    ``key = value`` lines (``qpic.keyfile``), no sections."""
    text = keyfile.read_text(path, "coupler fit")
    with keyfile.in_file(path):
        leading, *headers = keyfile.read_blocks(text)
        for header, line, _ in headers:
            raise NetlistError(f"expected 'key = value', got {header!r}",
                               line=line)
        keyfile.check_keys(leading, {f.name for f in fields(CouplerFit)},
                           set(), "coupler fit")
        return CouplerFit(**{k: keyfile.number(e)
                             for k, e in leading[2].items()})
