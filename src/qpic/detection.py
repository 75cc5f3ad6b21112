"""Two-photon coincidence probabilities and interferometer scans.

A coincidence between detector b on channel 1 and detector c on channel 2
sums two indistinguishable processes: the H-born photon reaching b while
the V-born photon reaches c, and the exchanged assignment. With the
amplitude F sampled on the rotated (sum, difference) grid and the chip's
routing coefficients A (for the H-born photon) and B (for the V-born
photon), the probability for polarisations (p_b, p_c) is

    P = sum W(S, d) | F(S, d)  A_1^{p_b}(w_b) B_2^{p_c}(w_c)
                    + F(S, -d) B_1^{p_b}(w_b) A_2^{p_c}(w_c) |^2

with w_b = (S + d)/2 detected at b and w_c = (S - d)/2 at c. Evaluating a
coefficient at w_c is an exact reversal of the difference axis, so every
factor lives on one common grid.

A delay scan adds delta to channel 2 of one 'fp' element, rephasing only
modes 2H and 2V there. With c the channel-1 input columns of the chain up
to that element and T the transfer of the rest, the coefficient of photon
p (0 H-born, 1 V-born) in detected mode r is the conjugate of

    D_rp + T_r2 c_2p exp(i k_H delta) + T_r3 c_3p exp(i k_V delta),
    D_rp = T_r0 c_0p + T_r1 c_1p,

so a scan computes the delay-free factors once and per delay forms two
phase grids and the modes its pairings read.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import cmt
from .circuit import (CHANNEL1_INPUTS, CircuitSpec, routing_coefficients,
                      transfer)
from .dispersion import C_UM_PS, pc_matched_wavelength
from .elements import mode_index, refractive_indices
from .errors import NumericalError, ValidationError
from .source import (GridSpec, JointSpectralAmplitude, build_jsa,
                     marginal_spectra)

PROBABILITY_SLACK = 1e-9

POLARISATIONS = ("H", "V")


@dataclass(frozen=True)
class CoincidenceQuery:
    """Which coincidence to score: detector-b and detector-c polarisation,
    or the polarisation-insensitive sum over all four combinations."""

    pol_b: str = "V"
    pol_c: str = "V"
    insensitive: bool = False

    def __post_init__(self):
        if not self.insensitive:
            if self.pol_b not in POLARISATIONS or \
                    self.pol_c not in POLARISATIONS:
                raise ValidationError(
                    "query polarisations must be 'H' or 'V', got "
                    f"({self.pol_b!r}, {self.pol_c!r})")


def thread_count() -> int:
    """Worker count from QPIC_THREADS (default 1). Strictly validated."""
    raw = os.environ.get("QPIC_THREADS")
    if raw is None or raw.strip() == "":
        return 1
    try:
        value = int(raw.strip())
    except ValueError:
        raise ValidationError(
            f"QPIC_THREADS must be a positive integer, got {raw!r}") from None
    if value < 1:
        raise ValidationError(
            f"QPIC_THREADS must be a positive integer, got {raw!r}")
    return value


def _check_probability(p: float) -> float:
    if not np.isfinite(p) or p < -PROBABILITY_SLACK \
            or p > 1.0 + PROBABILITY_SLACK:
        raise NumericalError(
            f"coincidence probability {p} outside [0, 1] beyond tolerance")
    return float(p)


def _query_pairs(query: CoincidenceQuery) -> list:
    """(mode at b, mode at c) of every pairing the query sums."""
    pols = [(pb, pc) for pb in POLARISATIONS for pc in POLARISATIONS] \
        if query.insensitive else [(query.pol_b, query.pol_c)]
    return [(mode_index(1, pb), mode_index(2, pc)) for pb, pc in pols]


def _probability(jsa: JointSpectralAmplitude, fields, pairs) -> float:
    """Exchange sum over ``pairs`` of (mode at b, mode at c); ``fields[m]``
    is the (signal, idler) pair of conjugated coefficients in mode m."""
    f = jsa.amplitude
    total = 0.0
    for mb, mc in pairs:
        (signal_b, idler_b), (signal_c, idler_c) = fields[mb], fields[mc]
        amp = (f * signal_b * idler_c[:, ::-1]
               + f[:, ::-1] * idler_b * signal_c[:, ::-1])
        total += float(np.sum(jsa.weights * np.abs(amp) ** 2))
    return _check_probability(total)


def coincidence(jsa: JointSpectralAmplitude, spec: CircuitSpec,
                query: CoincidenceQuery | None = None) -> float:
    """Coincidence probability of one detector polarisation pairing."""
    if query is None:
        query = CoincidenceQuery()
    coeffs = routing_coefficients(spec, jsa.signal_frequencies)
    fields = np.moveaxis(np.stack((coeffs.signal, coeffs.idler)), -1, 0)
    return _probability(jsa, fields, _query_pairs(query))


@dataclass
class ScanResult:
    """One scanned curve of coincidence probability plus dip summaries."""

    parameter: str
    values: np.ndarray
    probabilities: np.ndarray
    query: CoincidenceQuery
    baseline: float  # large-delay estimate: mean of the outermost samples
    minimum: float
    maximum: float
    visibility: float  # (baseline - minimum) / baseline
    dip_position: float  # parabola-refined location of the minimum
    dip_fwhm: float | None  # None when a flank never recrosses half depth
    boundary_warning: bool  # minimum sits on the scan edge

    def as_rows(self):
        return np.column_stack([self.values, self.probabilities])


def _analyse_scan(parameter, values, probabilities, query) -> ScanResult:
    values = np.asarray(values, dtype=float)
    p = np.asarray(probabilities, dtype=float)
    n = len(p)
    k = max(1, int(round(0.05 * n)))
    baseline = float(np.mean(np.concatenate([p[:k], p[-k:]])))
    i_min = int(np.argmin(p))
    minimum = float(p[i_min])
    maximum = float(np.max(p))
    visibility = (baseline - minimum) / baseline if baseline > 0.0 else 0.0
    boundary = i_min in (0, n - 1)

    dip_position = float(values[i_min])
    if not boundary:
        x0, x1, x2 = values[i_min - 1:i_min + 2]
        y0, y1, y2 = p[i_min - 1:i_min + 2]
        h0, h1 = x1 - x0, x2 - x1
        curvature = h1 * (y0 - y1) + h0 * (y2 - y1)
        if curvature > 0.0:
            # vertex of the parabola through three unequally spaced points
            dip_position = float(x1 + 0.5 * (h1 * h1 * (y0 - y1)
                                             - h0 * h0 * (y2 - y1))
                                 / curvature)

    level = 0.5 * (baseline + minimum)
    left = right = None
    j = i_min
    while j > 0 and p[j] < level:
        j -= 1
    if p[j] >= level and j < i_min:
        left = values[j] + (values[j + 1] - values[j]) \
            * (level - p[j]) / (p[j + 1] - p[j])
    j = i_min
    while j < n - 1 and p[j] < level:
        j += 1
    if p[j] >= level and j > i_min:
        right = values[j - 1] + (values[j] - values[j - 1]) \
            * (level - p[j - 1]) / (p[j] - p[j - 1])
    fwhm = float(right - left) if left is not None and right is not None \
        else None

    return ScanResult(parameter=parameter, values=values, probabilities=p,
                      query=query, baseline=baseline, minimum=minimum,
                      maximum=maximum, visibility=float(visibility),
                      dip_position=dip_position, dip_fwhm=fwhm,
                      boundary_warning=boundary)


DEFAULT_DELAY_SPAN = (-1500.0, 3700.0)  # um, brackets the bundled chip dip


def default_delay_values(n_points: int = 105,
                         span=DEFAULT_DELAY_SPAN) -> np.ndarray:
    return np.linspace(span[0], span[1], n_points)


def _check_delays(delay_values) -> np.ndarray:
    d = np.asarray(delay_values, dtype=float)
    if d.ndim != 1 or d.size < 3:
        raise ValidationError(
            "delay values must be a 1-D array of at least 3 points, got "
            f"shape {d.shape}")
    if not np.all(np.isfinite(d)):
        raise ValidationError("delay values must be finite")
    if not np.all(np.diff(d) > 0.0):
        raise ValidationError("delay values must be strictly increasing")
    return d


def _find_scan_element(spec: CircuitSpec, scan_element):
    if scan_element is None:
        fp_indices = [i for i, d in enumerate(spec.elements)
                      if d.kind == "fp"]
        if len(fp_indices) < 2:
            raise ValidationError(
                "delay scan needs a second 'fp' element to stretch; pass "
                "scan_element to pick one explicitly")
        return fp_indices[1]
    idx = int(scan_element)
    if not 0 <= idx < len(spec.elements):
        raise ValidationError(
            f"scan_element {idx} out of range for {len(spec.elements)} "
            f"elements")
    if spec.elements[idx].kind != "fp":
        raise ValidationError(
            f"scan_element {idx} is '{spec.elements[idx].kind}', not 'fp'")
    return idx


def hom_scan(jsa: JointSpectralAmplitude, spec: CircuitSpec, delay_values,
             query: CoincidenceQuery | None = None,
             scan_element=None) -> ScanResult:
    """Coincidence probability versus channel-2 length detuning.

    The scanned element is an 'fp' pair of straights (the second one by
    default); each delay value adds to its channel-2 length, so the offset
    where both arms balance appears as the interference dip. Delays must be
    a finite, strictly increasing 1-D array of at least 3 points.

    Detection coefficients take the factored form of the module docstring,
    conj(D_rp + T_r2 c_2p exp(i k_H delta) + T_r3 c_3p exp(i k_V delta)):
    all but the two phases are computed once, for the modes the query reads.
    """
    if query is None:
        query = CoincidenceQuery()
    delay_values = _check_delays(delay_values)
    idx = _find_scan_element(spec, scan_element)
    pairs = _query_pairs(query)
    rows = sorted({m for pair in pairs for m in pair})

    # indices once per grid: shared by both transfers and the delay phases
    w = jsa.signal_frequencies
    indices = refractive_indices(spec.model, w, spec.temperature)
    before = spec.with_elements(spec.elements[:idx + 1])
    after = spec.with_elements(spec.elements[idx + 1:])
    # the tail transfer is the memory peak, so it runs before cols exists
    tail = transfer(after, w, np.eye(4), indices)
    cols = transfer(before, w, CHANNEL1_INPUTS, indices)
    # delay-free factors as contiguous (row, photon, grid) arrays: D of mode
    # rows[r] in fixed[r], its T_r2/T_r3 in t2/t3[r], c_2p/c_3p in c2/c3[p]
    t, c = (np.moveaxis(a, (-2, -1), (0, 1)) for a in (tail, cols))
    fixed = np.stack([t[m, 0, None] * c[0] + t[m, 1, None] * c[1]
                      for m in rows])
    t2, t3 = (np.stack([t[m, k] for m in rows])[:, None] for k in (2, 3))
    c2, c3 = c[2].copy(), c[3].copy()
    del cols, tail, t, c
    ikh, ikv = (1j * (n * w / C_UM_PS) for n in indices)

    def probe(delta: float) -> float:
        fields = np.conj(fixed + t2 * (c2 * np.exp(ikh * delta))
                         + t3 * (c3 * np.exp(ikv * delta)))
        return _probability(jsa, dict(zip(rows, fields)), pairs)

    workers = thread_count()
    if workers == 1:
        probabilities = [probe(d) for d in delay_values]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            probabilities = list(pool.map(probe, delay_values))
    return _analyse_scan("delta_l_um", delay_values, probabilities, query)


@dataclass(frozen=True)
class SweepPoint:
    """Summary of one imperfection setting."""

    fraction: float
    visibility: float
    minimum: float
    maximum: float
    baseline: float
    dip_position: float
    scan: ScanResult


IMPERFECTION_TARGETS = ("bs", "pbs", "pbs-one-pol", "pc")


def _first_declaration(spec: CircuitSpec, kind: str) -> int:
    for i, decl in enumerate(spec.elements):
        if decl.kind == kind:
            return i
    raise ValidationError(f"circuit has no '{kind}' element to perturb")


def apply_imperfection(spec: CircuitSpec, target: str,
                       fraction: float) -> CircuitSpec:
    """Scale one element away from its ideal setting by ``fraction``.

    fraction 0 leaves the chip ideal; fraction 1 turns the element fully
    off (identity routing for the couplers, zero conversion for the
    converter).
    """
    if target not in IMPERFECTION_TARGETS:
        raise ValidationError(
            f"unknown imperfection target {target!r}; "
            f"known: {IMPERFECTION_TARGETS}")
    if not 0.0 <= fraction <= 1.0:
        raise ValidationError(
            f"imperfection fraction {fraction} outside [0, 1]")
    scale = 1.0 - fraction
    elements = list(spec.elements)
    if target == "bs":
        i = _first_declaration(spec, "bs")
        ideal = np.pi / 4.0
        elements[i] = elements[i].with_params(theta=scale * ideal,
                                              xi=scale * ideal)
    elif target == "pbs":
        i = _first_declaration(spec, "pbs")
        ideal = np.pi / 2.0
        elements[i] = elements[i].with_params(alpha=scale * ideal,
                                              beta=scale * ideal)
    elif target == "pbs-one-pol":
        i = _first_declaration(spec, "pbs")
        ideal = np.pi / 2.0
        elements[i] = elements[i].with_params(alpha=scale * ideal)
    else:  # pc
        i = _first_declaration(spec, "pc")
        length = spec.elements[i].params["length"]
        elements[i] = elements[i].with_params(
            kappa=scale * np.pi / (2.0 * length))
    return spec.with_elements(elements)


def imperfection_sweep(jsa: JointSpectralAmplitude, spec: CircuitSpec,
                       target: str, fractions, delay_values=None,
                       query: CoincidenceQuery | None = None):
    """Delay scans for a family of single-element imperfections."""
    if delay_values is None:
        delay_values = default_delay_values(41)
    points = []
    for fraction in np.asarray(fractions, dtype=float):
        perturbed = apply_imperfection(spec, target, float(fraction))
        scan = hom_scan(jsa, perturbed, delay_values, query)
        points.append(SweepPoint(fraction=float(fraction),
                                 visibility=scan.visibility,
                                 minimum=scan.minimum, maximum=scan.maximum,
                                 baseline=scan.baseline,
                                 dip_position=scan.dip_position, scan=scan))
    return points


@dataclass(frozen=True)
class TemperaturePoint:
    """Dip metrics and spectral diagnostics at one chip temperature."""

    temperature: float
    scan: ScanResult
    signal_peak: float  # um, marginal peak of the H-born photon
    idler_peak: float  # um
    signal_fwhm: float  # um
    window_centre: float  # um, converter phase-matched wavelength
    window_fwhm: float  # um
    outside_window: bool  # marginal peak clear of the conversion main lobe

    @property
    def visibility(self) -> float:
        return self.scan.visibility


def temperature_scan(spec: CircuitSpec, temperatures, delay_values=None,
                     query: CoincidenceQuery | None = None,
                     grid: GridSpec | None = None):
    """Re-derive source and chip at each temperature and scan the dip.

    The circuit must carry a [source] section and a 'pc' element; the
    joint amplitude is rebuilt per temperature so both the emission and
    the conversion window move.
    """
    if spec.pump is None or spec.phase_spec is None:
        raise ValidationError(
            "temperature scan needs the netlist [source] section")
    if delay_values is None:
        delay_values = default_delay_values(41)
    delay_values = _check_delays(delay_values)
    pc_idx = _first_declaration(spec, "pc")
    pc_params = spec.elements[pc_idx].params

    points = []
    for temperature in np.asarray(temperatures, dtype=float):
        t = float(temperature)
        jsa = build_jsa(spec.model, spec.pump, spec.phase_spec, grid,
                        temperature=t)
        chip = spec.at_temperature(t)
        scan = hom_scan(jsa, chip, delay_values, query)
        marginals = marginal_spectra(jsa)
        signal = marginals.signal
        signal_peak = signal.peak_wavelength
        idler_peak = marginals.idler.peak_wavelength
        # wavelength falls as omega rises; reverse for the width helper
        signal_fwhm = float(cmt.peak_fwhm(signal.wavelength[::-1],
                                          signal.density[::-1]))
        centre = pc_matched_wavelength(spec.model,
                                       pc_params["poling_period"], t)
        window_lams, window_frac = cmt.pc_spectrum(
            spec.model, pc_params["poling_period"], pc_params["length"],
            pc_params["kappa"], temperature=t)
        window_fwhm = float(cmt.peak_fwhm(window_lams, window_frac))
        # outside means the marginal clears the conversion main lobe, whose
        # base half-width is pi/1.3916 = 2.2576 half-maximum half-widths
        lobe_half_base = 1.1288 * window_fwhm
        outside = abs(signal_peak - centre) > 0.5 * signal_fwhm + lobe_half_base
        points.append(TemperaturePoint(
            temperature=t, scan=scan, signal_peak=signal_peak,
            idler_peak=idler_peak, signal_fwhm=signal_fwhm,
            window_centre=float(centre), window_fwhm=window_fwhm,
            outside_window=bool(outside)))
    return points

