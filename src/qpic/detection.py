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
factor lives on one common grid. The coefficients are conjugated transfer
entries; since |conj z| = |z|, the kernel sums the conjugated bracket, built
from sqrt(W) conj(F) (formed per chunk) and the transfer entries themselves.

A delay scan adds delta to channel 2 of the second 'fp' element,
rephasing only modes 2H and 2V there. With c the channel-1 input columns
of the chain up to that element and T the transfer of the rest (e_r
pushed through the reversed tail with transposed blocks, for the rows r
the pairings read), the transfer entry of photon p (0 H-born, 1 V-born)
in detected mode r is

    e_rp = T_r0 c_0p + T_r1 c_1p + T_r2 c_2p phi_H + T_r3 c_3p phi_V,

with base phasors phi_k = exp(i k_k delta), of which only the live terms
are kept (on the bundled chip only T_r2 c_20 and T_r3 c_31 carry a
phasor). A pairing's bracket g s_b i_c^R + g^R i_b s_c^R (R the reversal
of the difference axis) is then sum_K X_K Phi_K, each Phi_K a product of
a phasor at w and one at w^R, and

    P(delta) = C + 2 Re sum_theta <Y_theta, exp(i theta delta)>,

with C = sum |X_K|^2 and <,> the unconjugated grid sum. Y_theta sums
X_K conj(X_L) over every pairing and every two keys K, L whose exponent
theta, an integer combination of (k_H, k_V, k_H^R, k_V^R), is the same in
canonical form: reversal swaps the w and w^R parts and takes Y to Y^R,
conjugation takes theta to -theta and Y to conj Y.

Both ``coincidence`` (the whole chain, every live entry a field with no
phasor) and a scan (c and T) take the chip from ``_chip_on_rows`` and C
from ``_moments``, in chunks of grid rows (``source._row_blocks``), each
walked on its own rows in float64; no array the size of the grid outlives
a chunk.

``scan_grid`` gives a scan's sum axis the rows the trapezoid rule needs
(Trefethen & Weideman, SIAM Rev. 56 (2014) 385): the weight is the pump
envelope exp(-(S - w_p)^2 / Omega^2), cut at 6 Omega, times factors
whose phase turns by at most G per rad/ps of S, G the sinc ridge's drift
pdc_length |1/v_p - (1/v_H + 1/v_V)/2| plus each element's spread of
group delay over its paths (the scanned fp's at the outer delays). The
aliased error stays below the envelope's exp(-36) at its edge once the
row step h has 2 pi / h >= G + 12 / Omega. At least MIN_SUM_POINTS grid
points are kept, as the float64 rounding of phases k L ~ 1.5e5 rad
averages over them (a probability's floor is ~1.5e-12 at 2^15 points,
~5e-12 at 2^13); the count is rounded up to a power of two.

A scan expands each exponent in a Taylor series along the sum axis
(Anderson & Dahleh, SIAM J. Sci. Comput. 17 (1996) 913). With the grid
rows cut into blocks, theta_c(d) a block's reference line (``ref``, not
necessarily a grid row) and eps = theta - theta_c, a block adds

    sum_d exp(i theta_c(d) delta) sum_n (i delta)^n M_n(d),
    M_n(d) = sum_S Y_theta(S, d) eps(S, d)^n / n!,   n <= N.

Each chunk multiplies its Y_theta by eps in place and adds the row sums to
M_n. Once a block is complete, each tile of (delay, column) points, the
``_row_blocks`` of the delays, costs N + 1 Horner steps, one exp of
theta_c delta and one reduction; no exp runs on the grid, and uneven
delays cost nothing extra.

Blocks (per exponent, as the chunks stream past): a chunk measures
rho = max |eps| max |delta| on each row and adds the leading rows with
rho <= RHO_CAP to the exponent's open block, with N the least for which
rho^(N+1) e^rho / (N+1)! <= eps_mach at their largest rho; this bounds the
truncation by eps_mach sum |Y_theta|. The terms sum to at most
e^rho sum |Y_theta|, so RHO_CAP = 4 holds rounding within 55 eps_mach
(1.2e-14) of it. The first row past the cap closes the block and opens the
next, whose reference moves from theta on that row along the chunk's slope
toward the cap distance, not past the middle of the rows left; where one
row's move misses the cap it stays there (eps = 0, N = 0: the direct sum).
A 1000 ps pump gives one block, rho ~ 0.1 and N ~ 10; a 1 ps pump tens.

``temperature_scan`` and ``imperfection_sweep`` run each temperature or
fraction as one job of ``workers.forked_map``, one forked process per
available core, with results, warnings and errors as in a serial loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import cmt
from .circuit import CHANNEL1_INPUTS, CircuitSpec, element_matrices, walk
from .dispersion import group_velocity
from .elements import PhaseTable, _live_sum, mode_index
from .errors import NumericalError, RangeError, ValidationError, axis, \
    count, real, reals
from .source import (DEFAULT_GRID, SUM_SIGMA_FACTOR, GridSpec,
                     JointSpectralAmplitude, _quadrature_weights, _row_blocks,
                     build_jsa, marginal_spectra)

PROBABILITY_SLACK = 1e-9

RHO_CAP = 4.0  # max |eps| max |delta| of a block: rounding grows like e^rho

MIN_SUM_POINTS = 2 ** 15  # the fewest grid points ``scan_grid`` gives

# which coincidence to score: the polarisations at detectors b and c, or
# the polarisation-insensitive sum over the four of them
QUERIES = ("HH", "HV", "VH", "VV", "insensitive")


def _check_probability(p: float) -> float:
    if not np.isfinite(p) or p < -PROBABILITY_SLACK \
            or p > 1.0 + PROBABILITY_SLACK:
        raise NumericalError(
            f"coincidence probability {p} outside [0, 1] beyond tolerance")
    return float(p)


def _query_pairs(query: str) -> list:
    """(mode at b, mode at c) of every pairing the query sums;
    ValidationError for a label not in QUERIES."""
    if not (isinstance(query, str) and query in QUERIES):
        raise ValidationError(f"query {query!r} not one of {QUERIES}")
    labels = QUERIES[:4] if query == "insensitive" else [query]
    return [(mode_index(1, pb), mode_index(2, pc)) for pb, pc in labels]


def _weighted_amplitude(jsa: JointSpectralAmplitude, rows):
    """sqrt(W) conj(F) on the grid ``rows`` and its reversal along the
    difference axis."""
    weights = _quadrature_weights(jsa.sum_grid, jsa.diff_grid, rows)
    g = np.sqrt(weights) * np.conj(jsa.amplitude[rows])
    return g, np.ascontiguousarray(g[:, ::-1])


def _chip_on_rows(jsa: JointSpectralAmplitude, spec: CircuitSpec,
                  fields_of):
    """(rows, fields, k) of each chunk, the ``_row_blocks`` of the grid,
    in grid order: ``fields_of(phases)`` and k = (k_H, k_V) of the
    PhaseTable on the grid ``rows``."""
    s, d = jsa.sum_grid, jsa.diff_grid
    for rows in _row_blocks(len(s), len(d)):
        phases = PhaseTable(spec.model, (s[rows, None] + d) / 2.0,
                            spec.temperature)
        yield rows, fields_of(phases), phases.k


def coincidence(jsa: JointSpectralAmplitude, spec: CircuitSpec,
                query: str = "VV") -> float:
    """Coincidence probability of the ``query``, a label of QUERIES: the
    C of ``_moments``, chunk by chunk, on the walk of the whole chain."""
    pairs = _query_pairs(query)
    chain = element_matrices(spec)

    def fields_of(phases):  # each live entry is a field with no phasor
        return [[{} if e is None else {(0, 0): e} for e in entries]
                for entries in walk(chain, CHANNEL1_INPUTS, phases)]

    total = 0.0
    for rows, fields, k in _chip_on_rows(jsa, spec, fields_of):
        total += _moments(_weighted_amplitude(jsa, rows), fields, pairs)[0]
        del fields, k  # before the next chunk is walked
    return _check_probability(total)


@dataclass
class ScanResult:
    """One scanned curve of coincidence probability plus dip summaries."""

    values: np.ndarray  # channel-2 length detunings, um
    probabilities: np.ndarray
    baseline: float  # large-delay estimate: mean of the outermost samples
    minimum: float
    maximum: float
    visibility: float  # (baseline - minimum) / baseline
    dip_position: float  # parabola-refined location of the minimum
    dip_fwhm: float | None  # None when a flank never recrosses half depth
    boundary_warning: bool  # minimum sits on the scan edge


def _analyse_scan(values, probabilities) -> ScanResult:
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

    # the dip is a peak of -p; negation is exact, so is the interpolation
    left, right = cmt._level_crossings(values, -p, i_min,
                                       -0.5 * (baseline + minimum))
    fwhm = None if None in (left, right) else float(right - left)

    return ScanResult(values=values, probabilities=p, baseline=baseline,
                      minimum=minimum, maximum=maximum,
                      visibility=float(visibility),
                      dip_position=dip_position, dip_fwhm=fwhm,
                      boundary_warning=boundary)


DEFAULT_DELAY_SPAN = (-1500.0, 3700.0)  # um, brackets the bundled chip dip
DEFAULT_DELAY_POINTS = 105  # delays of a dip scan
SWEEP_DELAY_POINTS = 41  # delays of each scan of a sweep or temperature scan


def default_delay_values(n_points: int = DEFAULT_DELAY_POINTS) -> np.ndarray:
    """``n_points`` delays, an integer >= 3, over DEFAULT_DELAY_SPAN."""
    return np.linspace(*DEFAULT_DELAY_SPAN, count(n_points, "n_points", 3))


def _scanned_fp(spec: CircuitSpec, delays) -> int:
    """Index of the scanned 'fp', the second one; its channel-2 length
    must stay >= 0 at every one of the (increasing) ``delays``."""
    fp_indices = [i for i, d in enumerate(spec.elements) if d.kind == "fp"]
    if len(fp_indices) < 2:
        raise ValidationError("delay scan needs a second 'fp' element to "
                              "stretch")
    idx = fp_indices[1]
    l2 = spec.elements[idx].params["l2"]
    if l2 + delays[0] < 0.0:
        raise RangeError(
            f"scanned fp channel-2 length l2 + delay = {l2} + {delays[0]} "
            f"um must be >= 0")
    return idx


def scan_grid(spec: CircuitSpec, delay_values,
              size_diff: int = DEFAULT_GRID) -> GridSpec:
    """The grid of a delay scan of ``spec`` (with a [source] section):
    ``size_diff`` difference points and the sum rows of the module
    docstring's rule, whose inputs (ps, rad/ps) go into ``rule``.
    RangeError when the grid would exceed the ceiling of ``count``."""
    if spec.source is None:
        raise ValidationError("a scan grid needs the [source] section")
    delays = axis(delay_values, "delay values", 3)
    scanned = _scanned_fp(spec, delays)
    source, w = spec.source, spec.source.omega_pump
    # group delays per um: H and V at the degenerate frequency, the pump
    h, v, pump = (1.0 / group_velocity(spec.model, pol, x, spec.temperature)
                  for pol, x in (("H", w / 2.0), ("V", w / 2.0), ("H", w)))
    drift = source.pdc_length * abs(pump - (h + v) / 2.0)
    chip = 0.0
    for i, e in enumerate(spec.elements):
        if e.kind == "pc":
            chip += e.params["length"] * abs(h - v)
        elif e.kind == "fp":  # the scanned one at its outer delays
            l1 = e.params["l1"]
            l2s = e.params["l2"] + (delays[[0, -1]] if i == scanned else 0.0)
            chip += max(max(l1, l2) * max(h, v) - min(l1, l2) * min(h, v)
                        for l2 in np.atleast_1d(l2s))
    need = 1.0 + SUM_SIGMA_FACTOR / np.pi * (
        source.bandwidth * float(drift + chip) + 2.0 * SUM_SIGMA_FACTOR)
    pulse = f"(pulse_duration {source.pulse_duration} ps)"
    rows = math.ceil(real(need, f"scan grid sum rows {pulse}"))
    size_diff = count(size_diff, f"scan grid of {need:.6g} sum rows {pulse} "
                      f"x size_diff", 3, rows)
    rows = max(rows, -(-MIN_SUM_POINTS // size_diff))
    return GridSpec(1 << (rows - 1).bit_length(), size_diff, {
        "bandwidth_rad_ps": source.bandwidth, "ridge_drift_ps": drift,
        "chip_spread_ps": float(chip), "rows_needed": float(need)})


def _canonical(theta):
    """Canonical form of an exponent, the integer coefficients theta of
    (k_H, k_V, k_H^R, k_V^R): (key, reverse, negate). Reversal swaps the
    w and w^R parts; negation is conjugation."""
    swapped = theta[2:] + theta[:2]
    forms = [(theta, False, False), (swapped, True, False),
             (tuple(-n for n in theta), False, True),
             (tuple(-n for n in swapped), True, True)]
    key = max(form[0] for form in forms)
    return next(form for form in forms if form[0] == key)


def _moments(weighted, fields, pairs):
    """C and the moments Y_theta of the exchange sum over ``pairs``.

    ``fields[row]`` is the (signal, idler) pair of one detected mode, each
    a dict of its live terms keyed by the coefficients of (k_H, k_V) in
    their phasor; a field with no phasor has the single key (0, 0), or no
    key where the entry is a structural zero. ``weighted`` is
    ``_weighted_amplitude`` on the same grid rows. Returns C and a dict,
    in a fixed order, from canonical exponent to Y.
    """
    g, g_rev = weighted
    total = 0.0
    moments = {}
    for b, c in pairs:
        (signal_b, idler_b), (signal_c, idler_c) = fields[b], fields[c]
        x = {}  # keyed by the exponent of Phi_K, a phasor at w then at w^R
        for weight, first, second in ((g, signal_b, idler_c),
                                      (g_rev, idler_b, signal_c)):
            for kb, fb in first.items():
                for kc, fc in second.items():
                    term = weight * fb * fc[:, ::-1]
                    x[kb + kc] = x[kb + kc] + term if kb + kc in x else term
        keys = list(x)
        for i, a in enumerate(keys):
            total += np.vdot(x[a], x[a]).real
            for b_key in keys[i + 1:]:
                theta, reverse, negate = _canonical(
                    tuple(m - n for m, n in zip(a, b_key)))
                y = x[b_key] * np.conj(x[a]) if negate \
                    else x[a] * np.conj(x[b_key])
                y = y[:, ::-1] if reverse else y
                moments[theta] = moments[theta] + y if theta in moments \
                    else np.ascontiguousarray(y)
    return total, moments


def _exponent(theta, k) -> np.ndarray:
    """theta on the rows of ``k`` = (k_H, k_V), reversed along the
    difference axis for the w^R parts."""
    return sum(n * k[i % 2][..., ::1 if i < 2 else -1]
               for i, n in enumerate(theta) if n)


def _terms(rho: float) -> int:
    """The least N with rho^(N+1) e^rho / (N+1)! <= eps_mach, a bound on
    the remainder of exp(i x) after the x^N term for |x| <= rho."""
    n, bound = 0, rho * math.exp(rho)
    while bound > np.finfo(float).eps:
        n += 1
        bound *= rho / (n + 1)
    return n


@dataclass
class _Block:
    """Consecutive grid rows of one exponent: the reference line ``ref``
    and the sums of Y_theta eps^n, eps = theta - ref, for n up to the
    largest N any of its rows needed."""

    ref: np.ndarray
    moments: list = field(default_factory=list)

    @classmethod
    def opening(cls, first, slope, left: int, reach: float) -> "_Block":
        """A block opening on a row with theta ``first``, ``left`` grid rows
        from the end; ``slope`` is theta's move per row on the chunk."""
        step = reach * float(np.max(np.abs(slope)))  # rho of one row's move
        # 0.99: the first row stays strictly inside the cap
        shift = min((left - 1) / 2.0, 0.99 * RHO_CAP / step) \
            if 0.0 < step <= RHO_CAP else 0.0
        return cls(first + shift * slope)

    def add(self, y: np.ndarray, eps: np.ndarray, terms: int):
        """Add rows of Y_theta to the moments n <= ``terms``, with eps the
        rows' theta - ref; y is overwritten."""
        self.moments += [np.zeros(y.shape[1], complex)
                         for _ in range(terms + 1 - len(self.moments))]
        self.moments[0] += y.sum(axis=0)
        for moment in self.moments[1:terms + 1]:
            y *= eps
            moment += y.sum(axis=0)

    def values(self, delays: np.ndarray) -> np.ndarray:
        """2 Re <Y_theta, exp(i theta delta)> over the rows at every delay,
        Horner in delta on tiles, the ``_row_blocks`` of the delays."""
        factorials = np.cumprod([1.0, *range(1, len(self.moments))])
        m = np.array(self.moments) / factorials[:, None]
        out = np.empty(len(delays))
        for rows in _row_blocks(len(delays), m.shape[1]):
            step = 1j * delays[rows, None]
            tile = np.repeat(m[-1:], len(step), axis=0)
            for moment in m[-2::-1]:
                tile *= step
                tile += moment
            tile *= np.exp(step * self.ref)
            out[rows] = 2.0 * tile.sum(axis=1).real
        return out


def hom_scan(jsa: JointSpectralAmplitude, spec: CircuitSpec, delay_values,
             query: str = "VV") -> ScanResult:
    """Coincidence probability of the ``query``, a label of QUERIES,
    versus channel-2 length detuning.

    The scanned element is the second 'fp' pair of straights; each delay
    value adds to its channel-2 length, so the offset where both arms
    balance appears as the interference dip. Delays must be a finite,
    strictly increasing 1-D array of at least 3 points, and the stretched
    length l2 + delay must stay >= 0 (RangeError otherwise).

    The probability takes the moment form of the module docstring. The
    element chains before and after the scanned fp are built once and
    walked on each chunk of grid rows, which builds C and Y_theta from the
    live transfer terms of the modes the query reads and adds its rows to
    each exponent's open block. A block closed by a row past the rho cap
    gives every delay. ``scan_grid`` sizes a grid for the scan.
    """
    delay_values = axis(delay_values, "delay values", 3)
    idx = _scanned_fp(spec, delay_values)
    pairs = _query_pairs(query)
    rows = sorted({m for pair in pairs for m in pair})
    row_pairs = [(rows.index(mb), rows.index(mc)) for mb, mc in pairs]
    reach = float(np.max(np.abs(delay_values)))
    n_rows = len(jsa.sum_grid)

    # one chain, built once and sliced; both parts walk each chunk's rows
    chain = element_matrices(spec)
    before = chain[:idx + 1]
    after = [m.transposed() for m in reversed(chain[idx + 1:])]

    def fields_of(phases):
        # t[j][r] = T_{rows[r], j} and c[j][p], None where structurally zero
        t = walk(after, np.eye(4)[:, rows], phases)
        c = walk(before, CHANNEL1_INPUTS, phases)
        # the live terms of each row r and photon p, keyed by the
        # coefficients of (k_H, k_V) in their phasor
        terms = (((0, 0), (0, 1)), ((1, 0), (2,)), ((0, 1), (3,)))
        return [[{key: f for key, js in terms if (f := _live_sum(
                    (t[j][r], c[j][p]) for j in js)) is not None}
                 for p in (0, 1)] for r in range(len(rows))]

    blocks = {}  # the open block of each exponent
    closed = []

    def chunk(rs, fields, k) -> float:
        """C of the grid rows ``rs``, whose Y_theta go into the moments of
        each exponent's blocks; k = (k_H, k_V) on those rows."""
        total, moments = _moments(_weighted_amplitude(jsa, rs), fields,
                                  row_pairs)
        for theta, y in moments.items():
            theta_rows = _exponent(theta, k)
            slope = (theta_rows[-1] - theta_rows[0]) / max(len(y) - 1, 1)
            start = 0  # the first row of the chunk in no block yet
            while start < len(y):
                if theta not in blocks:
                    blocks[theta] = _Block.opening(
                        theta_rows[start], slope, n_rows - rs.start - start,
                        reach)
                eps = theta_rows[start:] - blocks[theta].ref
                rho = reach * np.max(np.abs(eps), axis=1)
                taken = next((i for i, r in enumerate(rho) if r > RHO_CAP),
                             len(rho))
                if taken:
                    blocks[theta].add(y[start:start + taken], eps[:taken],
                                      _terms(rho[:taken].max()))
                start += taken
                if start < len(y):
                    closed.append(blocks.pop(theta))
        return total

    values = np.zeros(len(delay_values))
    for rs, fields, k in _chip_on_rows(jsa, spec, fields_of):
        values += chunk(rs, fields, k)
        del fields, k  # the chunk goes before any tile is built
        while closed:
            values += closed.pop(0).values(delay_values)
    for block in blocks.values():
        values += block.values(delay_values)

    probabilities = [_check_probability(p) for p in values]
    return _analyse_scan(delay_values, probabilities)


@dataclass(frozen=True)
class SweepPoint:
    """The scan at one imperfection setting."""

    fraction: float
    scan: ScanResult


# imperfection target -> (element kind, ideal angle, angles it scales);
# the "pc" target scales the converter's coupling
_ANGLE_TARGETS = {"bs": ("bs", np.pi / 4.0, ("theta", "xi")),
                  "pbs": ("pbs", np.pi / 2.0, ("alpha", "beta")),
                  "pbs-one-pol": ("pbs", np.pi / 2.0, ("alpha",))}
IMPERFECTION_TARGETS = (*_ANGLE_TARGETS, "pc")


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
    if not 0.0 <= real(fraction, "imperfection fraction") <= 1.0:
        raise ValidationError(
            f"imperfection fraction {fraction} outside [0, 1]")
    scale = 1.0 - fraction
    if target == "pc":
        length = spec.elements[spec.index_of("pc")].params["length"]
        return spec.with_params("pc", kappa=scale * np.pi / (2.0 * length))
    kind, ideal, angles = _ANGLE_TARGETS[target]
    return spec.with_params(kind, **dict.fromkeys(angles, scale * ideal))


def imperfection_sweep(jsa: JointSpectralAmplitude, spec: CircuitSpec,
                       target: str, fractions, delay_values=None,
                       query: str = "VV"):
    """Delay scans for a family of single-element imperfections; at least
    one fraction (ValidationError)."""
    if delay_values is None:
        delay_values = default_delay_values(SWEEP_DELAY_POINTS)
    fractions = reals(fractions, "sweep fractions", 1, 1).tolist()
    # every fraction is checked before the first scan
    chips = [apply_imperfection(spec, target, f) for f in fractions]
    from .workers import forked_map  # hom's import compiles none of it
    scans = forked_map(
        lambda chip: hom_scan(jsa, chip, delay_values, query), chips)
    return [SweepPoint(f, scan) for f, scan in zip(fractions, scans)]


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


def temperature_scan(spec: CircuitSpec, temperatures, delay_values=None,
                     query: str = "VV", grid: GridSpec | None = None):
    """Re-derive source and chip at each temperature and scan the dip.

    The circuit must carry a [source] section and a 'pc' element; the
    joint amplitude is rebuilt per temperature so both the emission and
    the conversion window move. ``grid`` defaults to ``scan_grid`` of the
    chip and the delays.
    """
    if spec.source is None:
        raise ValidationError(
            "temperature scan needs the netlist [source] section")
    if delay_values is None:
        delay_values = default_delay_values(SWEEP_DELAY_POINTS)
    delay_values = axis(delay_values, "delay values", 3)
    _scanned_fp(spec, delay_values)  # before any grid work
    _query_pairs(query)
    temperatures = reals(temperatures, "temperatures", 1, 1).tolist()
    if grid is None:
        grid = scan_grid(spec, delay_values)
    pc = spec.elements[spec.index_of("pc")].params
    # every converter window's (centre, fwhm) before any grid work
    windows = []
    for t in temperatures:
        window = cmt.pc_window(spec.model, pc["poling_period"], pc["length"],
                               pc["kappa"], temperature=t)
        windows.append((window.centre, window.fwhm))

    def point(job) -> TemperaturePoint:
        t, (centre, window_fwhm) = job
        jsa = build_jsa(spec.model, spec.source, grid, temperature=t)
        scan = hom_scan(jsa, spec.at_temperature(t), delay_values, query)
        marginals = marginal_spectra(jsa)
        signal = marginals.signal
        signal_peak = signal.peak_wavelength
        idler_peak = marginals.idler.peak_wavelength
        # wavelength falls as omega rises; reverse for the width helper
        signal_fwhm = float(cmt.peak_fwhm(signal.wavelength[::-1],
                                          signal.density[::-1]))
        # outside means the marginal clears the conversion main lobe, whose
        # base half-width is pi/1.3916 = 2.2576 half-maximum half-widths
        lobe_half_base = 1.1288 * window_fwhm
        outside = abs(signal_peak - centre) > 0.5 * signal_fwhm + lobe_half_base
        return TemperaturePoint(
            temperature=t, scan=scan, signal_peak=signal_peak,
            idler_peak=idler_peak, signal_fwhm=signal_fwhm,
            window_centre=float(centre), window_fwhm=window_fwhm,
            outside_window=bool(outside))

    from .workers import forked_map  # hom's import compiles none of it
    # one JSA per process at a time: each job frees its own
    return forked_map(point, list(zip(temperatures, windows)))

