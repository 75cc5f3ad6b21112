"""Temperature-dependent dispersion of Ti-indiffused PPLN waveguides.

Effective indices are modelled as bulk congruent lithium niobate Sellmeier
curves plus a constant waveguide increment per polarisation. The H (TE)
polarisation rides the ordinary branch, V (TM) the extraordinary branch,
and the pump is H-polarised. Phase-matching functions take the grating's
poling period, which must be > 0, as a number. Units throughout: lengths
in um, time in ps, angular frequency in rad/ps, temperature in degrees C.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import keyfile
from .errors import NetlistError, NumericalError, PhaseMatchError, \
    RangeError, ValidationError

C_UM_PS = 299.792458  # speed of light, um/ps
DATA_DIR = Path(__file__).parent / "data"  # the bundled inputs, qpic/data

LAMBDA_MIN = 0.4  # um, Sellmeier validity
LAMBDA_MAX = 2.0
TEMP_MIN = 0.0  # C
TEMP_MAX = 200.0
T_REFERENCE = 24.5  # C, the temperature used when a call names none
RESIDUAL_TOL = 1e-10  # rad/um, accepted |mismatch| at a reported root
DEGENERATE_BRACKET = (1.4, 1.7)  # um, searched for the degenerate root
PC_MATCH_BRACKET = (1.4, 1.75)  # um, searched for the converter's match
SIGNAL_BRACKET = (1.35, 1.8)  # um, band of a tuning curve's signal


def omega_from_wavelength(wavelength):
    """Vacuum wavelength (um) to angular frequency (rad/ps)."""
    return 2.0 * np.pi * C_UM_PS / np.asarray(wavelength, dtype=float)


def wavelength_from_omega(omega):
    """Angular frequency (rad/ps) to vacuum wavelength (um)."""
    return 2.0 * np.pi * C_UM_PS / _floats(omega)


def _floats(x):
    """``x`` as an array of its floating dtype (np.longdouble kept), else
    of float64."""
    x = np.asarray(x)
    return x if x.dtype.kind == "f" else x.astype(float)


def _ordinary_shifted_pole(a, b, lam, t):
    # Single-pole fit with temperature folded into the pole and a constant
    # term: n^2 = a1 + (a2 + b1 F)/(lam^2 - (a3 + b2 F)^2) + b3 F - a4 lam^2,
    # F = (T - 24.5)(T + 570.5).
    f = (t - 24.5) * (t + 570.5)
    a1, a2, a3, a4 = a
    b1, b2, b3 = b
    n2 = a1 + (a2 + b1 * f) / (lam ** 2 - (a3 + b2 * f) ** 2) + b3 * f - a4 * lam ** 2
    return np.sqrt(n2)


def _extraordinary_two_pole(a, b, lam, t):
    # Two-pole fit, f = (T - 24.5)(T + 570.82); the second (infrared) pole
    # is temperature independent except through its strength.
    f = (t - 24.5) * (t + 570.82)
    a1, a2, a3, a4, a5, a6 = a
    b1, b2, b3, b4 = b
    n2 = (a1 + b1 * f
          + (a2 + b2 * f) / (lam ** 2 - (a3 + b3 * f) ** 2)
          + (a4 + b4 * f) / (lam ** 2 - a5 ** 2)
          - a6 * lam ** 2)
    return np.sqrt(n2)


# form name -> (evaluator, len(a), len(b))
_SELLMEIER_FORMS = {
    "edwards-lawrence-1984": (_ordinary_shifted_pole, 4, 3),
    "jundt-1997": (_extraordinary_two_pole, 6, 4),
}


@dataclass(frozen=True)
class SellmeierSet:
    """One branch of the bulk dispersion: a named functional form plus its
    wavelength coefficients ``a`` and temperature coefficients ``b``."""

    form: str
    a: tuple
    b: tuple

    def __post_init__(self):
        if self.form not in _SELLMEIER_FORMS:
            raise ValidationError(
                f"unknown Sellmeier form '{self.form}'; "
                f"known forms: {sorted(_SELLMEIER_FORMS)}")
        _, na, nb = _SELLMEIER_FORMS[self.form]
        if len(self.a) != na or len(self.b) != nb:
            raise ValidationError(
                f"form '{self.form}' needs {na} 'a' and {nb} 'b' coefficients, "
                f"got {len(self.a)} and {len(self.b)}")

    def evaluate(self, wavelength, temperature):
        fn, _, _ = _SELLMEIER_FORMS[self.form]
        return fn(self.a, self.b, _floats(wavelength), float(temperature))


DELTA_N_MAX = 0.05


def _check_delta_n(label, value):
    if not 0.0 <= value <= DELTA_N_MAX:
        raise RangeError(f"{label} = {value} outside [0, {DELTA_N_MAX}]")
    return value


@dataclass(frozen=True)
class MaterialModel:
    """Waveguide material: two bulk branches plus constant index increments.

    ``delta_n_h`` is added to the ordinary branch (H/TE modes and the pump),
    ``delta_n_v`` to the extraordinary branch (V/TM modes).
    """

    ordinary: SellmeierSet
    extraordinary: SellmeierSet
    delta_n_h: float = 0.01
    delta_n_v: float = 0.01
    name: str = "unnamed material"

    def __post_init__(self):
        _check_delta_n("delta_n_h", self.delta_n_h)
        _check_delta_n("delta_n_v", self.delta_n_v)


@functools.cache
def default_material() -> MaterialModel:
    """The bundled congruent-LN model, ``qpic/data/linbo3.material``."""
    return load_material(DATA_DIR / "linbo3.material")


def _check_temperature(temperature):
    t = float(temperature)
    if not TEMP_MIN <= t <= TEMP_MAX:
        raise RangeError(
            f"temperature {t} C outside validity range "
            f"[{TEMP_MIN}, {TEMP_MAX}] C")
    return t


def _check_wavelength(wavelength, band=(LAMBDA_MIN, LAMBDA_MAX),
                      what="wavelength {} um outside validity range"):
    """The wavelengths as an array; a RangeError names the first outside
    ``band`` (NaN included) in the words of ``what``."""
    lam = _floats(wavelength)
    inside = (lam >= band[0]) & (lam <= band[1])  # False for NaN
    if not np.all(inside):
        raise RangeError(f"{what.format(lam.flat[int(np.argmin(inside))])} "
                         f"[{band[0]}, {band[1]}] um")
    return lam


def index(model: MaterialModel, pol: str, wavelength, temperature=None):
    """Effective index for polarisation ``pol`` ('H' or 'V').

    ``wavelength`` in um (scalar or array), ``temperature`` in C (defaults
    to T_REFERENCE). Raises RangeError outside the validity box.
    """
    lam = _check_wavelength(wavelength)
    t = _check_temperature(T_REFERENCE if temperature is None
                           else temperature)
    if pol == "H":
        n = model.ordinary.evaluate(lam, t) + model.delta_n_h
    elif pol == "V":
        n = model.extraordinary.evaluate(lam, t) + model.delta_n_v
    else:
        raise ValidationError(f"polarisation must be 'H' or 'V', got {pol!r}")
    return n if lam.ndim else float(n)


def wavevector(model: MaterialModel, pol: str, omega, temperature=None):
    """Propagation constant k = n(omega) * omega / c in rad/um."""
    w = np.asarray(omega, dtype=float)
    positive = w > 0.0  # False for NaN
    if not np.all(positive):
        raise RangeError("angular frequency must be positive, got "
                         f"{float(w.flat[int(np.argmin(positive))])} rad/ps")
    n = index(model, pol, wavelength_from_omega(w), temperature)
    k = n * w / C_UM_PS
    return k if w.ndim else float(k)


def group_velocity(model: MaterialModel, pol: str, omega, temperature=None):
    """Group velocity dw/dk in um/ps via a central difference in omega."""
    w = np.asarray(omega, dtype=float)
    h = w * 1e-6
    kp = wavevector(model, pol, w + h, temperature)
    km = wavevector(model, pol, w - h, temperature)
    vg = 2.0 * h / (np.asarray(kp) - np.asarray(km))
    if not np.all(np.isfinite(vg)):
        raise NumericalError(
            "group velocity derivative is not finite at "
            f"omega = {float(np.ravel(w)[0])} rad/ps")
    return vg if w.ndim else float(vg)


def group_index(model: MaterialModel, pol: str, omega, temperature=None):
    """c / group_velocity; convenient for delay bookkeeping."""
    return C_UM_PS / group_velocity(model, pol, omega, temperature)


PUMP_LAMBDA_MIN = 0.6  # um, telecom-band type-II downconversion pumps
PUMP_LAMBDA_MAX = 0.9


def _grating(poling_period: float) -> float:
    """2 pi / poling_period in rad/um; RangeError unless the period > 0."""
    if not poling_period > 0.0:
        raise RangeError(f"poling period {poling_period} um must be > 0")
    return 2.0 * np.pi / poling_period


def pdc_mismatch(model: MaterialModel, poling_period: float,
                 omega_signal, omega_idler, temperature=None):
    """Phase mismatch of H-pump -> H-signal + V-idler downconversion.

    delta_k = k_p(w_s + w_i) - k_H(w_s) - k_V(w_i) - 2 pi / poling_period,
    in rad/um. The grating term is oriented to absorb the excess pump
    momentum of normally dispersive material, so a positive poling period
    around 9 um phase-matches 1.55 um degeneracy.
    """
    grating = _grating(poling_period)
    ws = np.asarray(omega_signal, dtype=float)
    wi = np.asarray(omega_idler, dtype=float)
    kp = wavevector(model, "H", ws + wi, temperature)
    ks = wavevector(model, "H", ws, temperature)
    ki = wavevector(model, "V", wi, temperature)
    dk = np.asarray(kp) - np.asarray(ks) - np.asarray(ki) - grating
    return dk if (ws.ndim or wi.ndim) else float(dk)


def pc_mismatch(model: MaterialModel, poling_period: float, wavelength,
                temperature=None):
    """Phase mismatch of the H <-> V polarisation-conversion grating.

    delta_k = (2 pi / lambda)(n_H - n_V) - 2 pi / poling_period, rad/um.
    """
    lam = np.asarray(wavelength, dtype=float)
    nh = index(model, "H", lam, temperature)
    nv = index(model, "V", lam, temperature)
    dk = _pc_grating_mismatch(nh, nv, lam, poling_period)
    return dk if lam.ndim else float(dk)


def _pc_grating_mismatch(n_h, n_v, lam, poling_period: float):
    # pc_mismatch from indices already evaluated at lam
    grating = _grating(poling_period)
    return 2.0 * np.pi * (np.asarray(n_h) - np.asarray(n_v)) / lam - grating


def _bracketed_roots(fn, lo, hi, samples, xtol=1e-14):
    """Ascending roots of fn on [lo, hi]: exact zeros among the samples and
    a Brent refinement of each sign change between neighbouring samples.

    ``fn`` is called once on the whole ``linspace(lo, hi, samples)`` array,
    so it must accept arrays. The JSA ridge offset passes ``xtol=1e-12``:
    1e-14 would move it by ~5e-13 rad/ps and the grid amplitudes by ~5e-12.
    """
    xs = np.linspace(lo, hi, samples)
    ys = np.asarray(fn(xs), dtype=float)
    crossing = np.append(ys[:-1] * ys[1:] < 0.0, False)
    return [xs[i] if ys[i] == 0.0 else
            _brent(fn, xs[i], xs[i + 1], xtol=xtol, rtol=8.9e-16)
            for i in np.flatnonzero((ys == 0.0) | crossing)]


def _brent(fn, a, b, xtol, rtol):
    """Root of scalar ``fn`` in [a, b] by Brent's method (R. P. Brent,
    Algorithms for Minimization without Derivatives, 1973, ch. 4).

    A step-for-step transcription of the loop behind
    ``scipy.optimize.brentq``, so it returns the same float. Stops when
    the bracket half-width is below (xtol + rtol |x|)/2. Raises
    NumericalError on a bracket without a sign change, a non-finite
    function value, or no convergence within 100 steps.
    """
    def f(x):
        fx = float(fn(x))
        if not math.isfinite(fx):
            raise NumericalError(f"root function is {fx} at x = {x!r}")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):  # C tests signbit; same when nonzero
        raise NumericalError(
            f"root bracket [{xpre!r}, {xcur!r}] has no sign change")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # no interpolation step: bisect
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) \
                        / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # inf or nan in C, which bisects
                pass
        if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = f(xcur)
    raise NumericalError(
        f"root refinement did not converge in 100 steps; last x = {xcur!r}")


def _verify_residual(fn, root, what):
    res = abs(fn(root))
    if res > RESIDUAL_TOL:
        raise NumericalError(
            f"{what} root residual {res:.3e} rad/um exceeds "
            f"{RESIDUAL_TOL:.0e}")
    return root


def _matched_wavelength(mismatch, bracket, what, kind, where):
    """Residual-checked root of ``mismatch`` in ``bracket`` nearest 1.55 um;
    PhaseMatchError if there is none, a warning if there are several."""
    roots = _bracketed_roots(mismatch, bracket[0], bracket[1], 301)
    if not roots:
        raise PhaseMatchError(
            f"no phase-matching in band [{bracket[0]}, {bracket[1]}] um for "
            f"{where}")
    if len(roots) > 1:
        warnings.warn(
            f"multiple {kind}-matched wavelengths in bracket; "
            "returning the one closest to 1.55 um", stacklevel=3)
    root = min(roots, key=lambda x: abs(x - 1.55))
    return _verify_residual(mismatch, root, what)


def degenerate_wavelength(model: MaterialModel, poling_period: float,
                          temperature=None):
    """Degenerate downconversion wavelength for a given poling period.

    Solves delta_k(w/2 + w/2) = 0 for the common signal/idler wavelength
    inside DEGENERATE_BRACKET. Raises RangeError unless the period is > 0
    and PhaseMatchError when no root exists.
    """
    grating = _grating(poling_period)
    t = T_REFERENCE if temperature is None else temperature

    def mismatch(lam):
        np_pump = index(model, "H", lam / 2.0, t)
        nh = index(model, "H", lam, t)
        nv = index(model, "V", lam, t)
        return (2.0 * np.pi / lam) * (2.0 * np_pump - nh - nv) - grating

    return _matched_wavelength(
        mismatch, DEGENERATE_BRACKET, "degenerate wavelength", "phase",
        f"poling period {poling_period} um at {float(t)} C")


def pc_matched_wavelength(model: MaterialModel, poling_period: float,
                          temperature=None):
    """Wavelength where the polarisation-conversion grating is matched,
    inside PC_MATCH_BRACKET."""

    def mismatch(lam):
        return pc_mismatch(model, poling_period, lam, temperature)

    return _matched_wavelength(
        mismatch, PC_MATCH_BRACKET, "conversion wavelength", "conversion",
        f"conversion poling period {poling_period} um")


@dataclass(frozen=True)
class TuningCurve:
    """Signal/idler emission wavelengths versus pump wavelength."""

    pump: np.ndarray  # um
    signal: np.ndarray  # um, H-polarised branch
    idler: np.ndarray  # um, V-polarised branch
    omitted: tuple  # pump wavelengths with no phase-matched pair in band


def tuning_curve(model: MaterialModel, poling_period: float, temperature,
                 pump_wavelengths):
    """Solve the energy-conserving pair for each pump wavelength.

    For each pump, finds the frequency offset x with signal at w/2 + x and
    idler at w/2 - x, both inside SIGNAL_BRACKET, where the mismatch
    vanishes; the root closest to degeneracy is kept. Pumps without a root
    land in ``omitted``. Every pump must lie in [PUMP_LAMBDA_MIN,
    PUMP_LAMBDA_MAX] and the period must be > 0, else RangeError.
    """
    pumps = np.atleast_1d(_check_wavelength(
        pump_wavelengths, (PUMP_LAMBDA_MIN, PUMP_LAMBDA_MAX),
        "pump wavelength {} um outside"))
    _grating(poling_period)
    t = T_REFERENCE if temperature is None else temperature
    found, sigs, idls, omitted = [], [], [], []
    w_lo = omega_from_wavelength(SIGNAL_BRACKET[1])
    w_hi = omega_from_wavelength(SIGNAL_BRACKET[0])
    for lam_p in pumps:
        w_p = float(omega_from_wavelength(lam_p))
        w_half = w_p / 2.0
        x_max = min(w_half - w_lo, w_hi - w_half)
        if x_max <= 0.0:
            omitted.append(float(lam_p))
            continue

        def mismatch(x):
            return pdc_mismatch(model, poling_period, w_half + x, w_half - x,
                                t)

        roots = _bracketed_roots(mismatch, -x_max, x_max, 401)
        if not roots:
            omitted.append(float(lam_p))
            continue
        x = min(roots, key=abs)
        _verify_residual(mismatch, x, "tuning curve")
        found.append(float(lam_p))
        sigs.append(float(wavelength_from_omega(w_half + x)))
        idls.append(float(wavelength_from_omega(w_half - x)))
    return TuningCurve(pump=np.array(found), signal=np.array(sigs),
                       idler=np.array(idls), omitted=tuple(omitted))


# ---------------------------------------------------------------------------
# material file parsing

# section -> (required keys, optional keys)
_SECTION_KEYS = {
    "[ordinary]": ({"form", "a", "b"}, set()),
    "[extraordinary]": ({"form", "a", "b"}, set()),
    "[waveguide]": (set(), {"delta_n_h", "delta_n_v"}),
}


def load_material(path) -> MaterialModel:
    """Parse a material description file.

    Format (``qpic.keyfile``): an optional leading ``name = ...`` line, then
    sections ``[ordinary]``, ``[extraordinary]`` (keys: form, a, b with
    whitespace separated coefficient lists) and optional ``[waveguide]``
    (keys: delta_n_h, delta_n_v).
    """
    text = keyfile.read_text(path, "material file")
    with keyfile.in_file(path):
        leading, *blocks = keyfile.read_blocks(text)
        keyfile.check_keys(leading, set(), {"name"},
                           "the lines before the first section")
        sections = {}
        for block in blocks:
            header, line, entries = block
            if header not in _SECTION_KEYS:
                raise NetlistError(f"unknown section {header}", line=line)
            if header in sections:
                raise NetlistError(f"duplicate section {header}", line=line)
            keyfile.check_keys(block, *_SECTION_KEYS[header], header)
            sections[header] = entries

        def coefficients(entry):
            values, line, column = entry
            return tuple(keyfile.number((v, line, column))
                         for v in values.split())

        def branch(section):
            if section not in sections:
                raise NetlistError(f"missing section {section}")
            entries = sections[section]
            with keyfile.at_line(entries["form"][1]):
                return SellmeierSet(form=entries["form"][0],
                                    a=coefficients(entries["a"]),
                                    b=coefficients(entries["b"]))

        fields = {}
        for key, entry in sections.get("[waveguide]", {}).items():
            with keyfile.at_line(entry[1]):
                fields[key] = _check_delta_n(key, keyfile.number(entry))
        if "name" in leading[2]:
            fields["name"] = leading[2]["name"][0]
        return MaterialModel(branch("[ordinary]"), branch("[extraordinary]"),
                             **fields)
