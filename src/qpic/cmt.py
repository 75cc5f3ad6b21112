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

import numpy as np

from . import keyfile
from .dispersion import (LAMBDA_MAX, LAMBDA_MIN, MaterialModel,
                         pc_matched_wavelength, pc_mismatch)
from .errors import NetlistError, NumericalError, RangeError, \
    ValidationError


def _core_terms(kappa, dbeta, z):
    """(cos sz, (dbeta/2s) sin sz, (kappa/s) sin sz) of one section."""
    kappa, dbeta, z = (np.asarray(v, dtype=float) for v in (kappa, dbeta, z))
    s = np.hypot(kappa, dbeta / 2.0)
    s_safe = np.where(s == 0.0, 1.0, s)
    phase = s * z
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
    kappa, length = (np.asarray(v, dtype=float) for v in (kappa, length))
    dbetas = [np.asarray(d, dtype=float) for d in dbetas]
    for label, value in [("coupling", kappa), ("section length", length),
                         *[("mismatch", d) for d in dbetas]]:
        finite = np.isfinite(value)
        if not np.all(finite):
            raise RangeError(f"{label} {value.flat[int(np.argmin(finite))]} "
                             f"must be finite")
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
    if not (np.isfinite(length) and length > 0.0):
        raise RangeError(f"section length {length} um must be finite and > 0")
    if not (np.isfinite(kappa) and kappa >= 0.0):
        raise RangeError(f"coupling {kappa} rad/um must be finite and >= 0")
    lam = np.asarray(wavelength, dtype=float)
    dk = np.asarray(pc_mismatch(model, poling_period, lam, temperature))
    frac = _core_terms(kappa, dk, length)[2] ** 2
    return frac if lam.ndim else float(frac)


def pc_spectrum(model: MaterialModel, poling_period: float, length: float,
                kappa: float, temperature=None, wavelengths=None,
                n_points: int = 2001):
    """Conversion spectrum of a poled section.

    Returns (wavelengths, fraction). When no wavelength grid is given, one
    is centred on the matched wavelength and spans four times the
    estimated sinc width on each side; RangeError when that window leaves
    the material's validity range (a converter too short for its window).
    """
    if wavelengths is None:
        centre = pc_matched_wavelength(model, poling_period, temperature)
        # FWHM of sin^2(dk L / 2)/..: dk L spans ~ 5.57 rad across half max
        h = centre * 1e-4
        slope = abs(pc_mismatch(model, poling_period, centre + h, temperature)
                    - pc_mismatch(model, poling_period, centre - h,
                                  temperature)) / (2.0 * h)
        fwhm = 2.0 * 2.783 / (length * slope)
        half = 4.0 * fwhm
        if not LAMBDA_MIN <= centre - half < centre + half <= LAMBDA_MAX:
            raise RangeError(
                f"converter length {length} um gives a conversion window "
                f"{centre - half:.6g} to {centre + half:.6g} um, outside the "
                f"validity range [{LAMBDA_MIN}, {LAMBDA_MAX}] um")
        wavelengths = np.linspace(centre - half, centre + half, n_points)
    else:
        wavelengths = np.asarray(wavelengths, dtype=float)
    frac = conversion_fraction(model, poling_period, length, kappa,
                               wavelengths, temperature)
    return wavelengths, frac


def peak_fwhm(x, y):
    """Full width at half maximum of a single-peaked sampled curve.

    Linear interpolation on both flanks of the global maximum. x must be
    finite and strictly increasing, with one y per x (ValidationError).
    Raises NumericalError when either half-maximum crossing is outside the
    grid.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or not x.size:
        raise ValidationError(f"peak width needs one y per x and at least "
                              f"one x, got shapes {x.shape} and {y.shape}")
    if not (np.all(np.isfinite(x)) and np.all(np.diff(x) > 0.0)):
        raise ValidationError("peak width needs finite, strictly increasing "
                              "x")
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


def _check_coupler(label: str, kappa_c, half_length):
    """RangeError unless the coupling kappa_c is >= 0 and the section
    length half_length is > 0; shared by every two-section coupler."""
    if not kappa_c >= 0.0:
        raise RangeError(f"{label} coupling {kappa_c} rad/um must be >= 0")
    if not half_length > 0.0:
        raise RangeError(f"{label} half length {half_length} um must be > 0")


def switch_map(kappa_c: float, half_length: float, u1_values, u2_values,
               dbeta_per_volt: float | None = None):
    """Bar-state power of a two-section electro-optic coupler vs voltages.

    Returns an array of shape (len(u1), len(u2)) with the power staying in
    the launch channel after sections driven at u1 then u2. The coupler
    takes the range checks of an 'eobs' element; any other non-finite
    input raises ValidationError.
    """
    from .elements import EO_BS_DBETA_PER_VOLT  # local to avoid a cycle
    _check_coupler("switch map", kappa_c, half_length)
    if dbeta_per_volt is None:
        dbeta_per_volt = EO_BS_DBETA_PER_VOLT
    u1 = np.asarray(u1_values, dtype=float)
    u2 = np.asarray(u2_values, dtype=float)
    for label, value in (("kappa_c", kappa_c), ("half_length", half_length),
                         ("u1", u1), ("u2", u2),
                         ("dbeta_per_volt", dbeta_per_volt)):
        if not np.all(np.isfinite(value)):
            raise ValidationError(f"switch map: {label} must be finite")
    d1 = dbeta_per_volt * u1[:, None]
    d2 = dbeta_per_volt * u2[None, :]
    total = compose_sections(kappa_c, (d1, d2), half_length)
    return np.abs(total[..., 0, 0]) ** 2


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
        if not np.all(np.isfinite([getattr(self, f.name)
                                   for f in fields(self)])):
            raise RangeError(f"coupler fit values must be finite: {self}")
        if self.beat_te <= 0.0 or self.beat_tm <= 0.0:
            raise RangeError("beat lengths must be > 0")


def _ratio_model(length, beat, offset):
    return np.sin(np.pi * (length - offset) / (2.0 * beat)) ** 2


def splitting_ratio(fit: CouplerFit, coupler_length, pol: str):
    """Unwanted-port power fraction at a given coupler length."""
    length = np.asarray(coupler_length, dtype=float)
    if not np.all(np.isfinite(length)):
        raise RangeError(f"coupler length {coupler_length} um must be finite")
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
    lengths = np.asarray(lengths, dtype=float)
    ratios = np.asarray(ratios, dtype=float)
    if lengths.size < 3:
        raise ValidationError("coupler fit needs at least 3 points per "
                              "polarisation")
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
    r_h = splitting_ratio(fit, coupler_length, "H")
    r_v = splitting_ratio(fit, coupler_length, "V")
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
