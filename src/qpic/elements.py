"""Frequency-dependent 4x4 transfer matrices of the on-chip elements.

Mode basis, in fixed order: (channel 1, H), (channel 1, V), (channel 2, H),
(channel 2, V). Matrices map input mode amplitudes to output mode
amplitudes, U[out, in]; the column index is the input mode. Composition of
a chip is left-multiplication in listed order (first element acts first).

Every element is stored with the block structure it really has, never as
a dense 4x4 per frequency:

- pbs, bs, pm and eobs are one frequency-independent 4x4;
- fp is four diagonal phases exp(i n(w) w l / c);
- pc is a 2x2 on the channel-1 (H, V) pair; channel 2 passes unchanged.

Each netlist kind has one factory here (``circuit.ELEMENT_FACTORIES``),
whose parameter names are the kind's netlist keys: renaming a parameter
renames a key. ``circuit.ElementDecl`` calls it once per declaration.

``ElementMatrix.apply`` acts with that structure on a 4 x k table of
amplitude entries, one per (mode, input vector). An entry is None where the
amplitude is a structural zero, an exact zero of the input that no element
has filled; otherwise it is an array of shape (1,) * grid.ndim until a
dispersive block touches it, and of the grid's shape from then on. A
product enters a sum only when both its coefficient and its entry are
live, in the order the dense product adds them, so the dropped terms are
exact zeros. The dispersive blocks read one ``PhaseTable`` per frequency
grid (a chunk's rows): the refractive indices (n_H, n_V) of the material at the chip
temperature, the wavevectors k = n w / c and the straight phases
exp(i k l), each (polarisation, length) evaluated at most once.
``circuit.walk`` is the one place that walks a chain; ``evaluate`` writes
one element's block out as a dense 4x4 on a PhaseTable's grid, for tests
and single-element inspection.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import cmt
from .dispersion import (C_UM_PS, MaterialModel, _grating,
                         _pc_grating_mismatch, index, wavelength_from_omega)
from .errors import RangeError, ValidationError, real

BASIS = ("1H", "1V", "2H", "2V")


def mode_index(channel: int, pol: str) -> int:
    """Index of (channel, polarisation) in the fixed mode basis."""
    if channel not in (1, 2):
        raise ValidationError(f"channel must be 1 or 2, got {channel!r}")
    if pol not in ("H", "V"):
        raise ValidationError(f"polarisation must be 'H' or 'V', got {pol!r}")
    return (channel - 1) * 2 + (0 if pol == "H" else 1)


class PhaseTable:
    """Refractive indices, wavevectors and straight-waveguide phases on
    one frequency grid.

    ``indices`` holds (n_H, n_V) of ``model`` on ``omega`` (rad/ps) at
    ``temperature``, and ``k[pol]`` is n_pol(w) w / c for pol 0 (H) and
    1 (V), in the dtype of ``omega``. ``phase(pol, length)`` is
    exp(i k[pol] length); it is evaluated at most once per (pol, length)
    and shared by every element and walk on the grid.
    """

    def __init__(self, model: MaterialModel, omega, temperature):
        lam = wavelength_from_omega(omega)
        self.omega = omega
        self.indices = tuple(np.asarray(index(model, pol, lam, temperature))
                             for pol in ("H", "V"))
        self.k = tuple(n * omega / C_UM_PS for n in self.indices)
        self._phases = {}

    def phase(self, pol: int, length: float):
        key = (pol, length)
        if key not in self._phases:
            self._phases[key] = self._evaluate(pol, length)
        return self._phases[key]

    def _evaluate(self, pol: int, length: float):
        return np.exp(1j * (self.k[pol] * length))


def amplitude_table(amps, ndim: int) -> list:
    """The columns of ``amps`` (4, k) as a 4 x k table of entries.

    An exact zero becomes None, a structural zero; any other value an
    entry of shape (1,) * ``ndim``, spread over the grid only once an
    element's block depends on frequency.
    """
    return [[None if v == 0 else np.full((1,) * ndim, v) for v in row]
            for row in np.asarray(amps, dtype=complex)]


def _live_sum(pairs):
    """Sum of a * b over the pairs with both factors live, in order; None
    when there is none. Dropped terms are exact zeros, so the sum equals
    the dense one."""
    total = None
    for a, b in pairs:
        if a is None or b is None:
            continue
        term = a * b
        total = term if total is None else total + term
    return total


@dataclass(frozen=True)
class ElementMatrix:
    """A frequency-resolved 4x4 unitary stored as its blocks.

    ``structure`` "dense": ``block`` is a constant 4x4 array. "diagonal":
    ``block`` is the straight lengths (l1, l2) of channels 1 and 2, whose
    phases come from the grid's ``PhaseTable``. "channel1":
    ``block(phases)`` returns the channel-1 2x2 on the table's grid, shape
    ``(2, 2) + omega.shape``.
    """

    structure: str
    block: np.ndarray | tuple | Callable

    def apply(self, table, phases):
        """This element acting on a 4 x k table of amplitude entries
        (``amplitude_table``), whose entries it never writes. Only live
        entries and nonzero coefficients enter a product; ``phases`` is
        the grid's PhaseTable, read only by the dispersive blocks."""
        if self.structure == "dense":
            m = self.block
            return [[_live_sum((m[i, j], table[j][c]) for j in range(4)
                               if m[i, j] != 0)
                     for c in range(len(table[0]))] for i in range(4)]
        if self.structure == "diagonal":
            return [[None if e is None else
                     phases.phase(i % 2, self.block[i // 2]) * e
                     for e in row] for i, row in enumerate(table)]
        b = self.block(phases)
        return [[_live_sum(((b[r, 0], e0), (b[r, 1], e1)))
                 for e0, e1 in zip(table[0], table[1])]
                for r in (0, 1)] + table[2:]

    def transposed(self) -> "ElementMatrix":
        """The element with its block transposed at every frequency."""
        block = self.block
        if self.structure == "channel1":
            return replace(self, block=lambda p: block(p).swapaxes(0, 1))
        return replace(self, block=block.T) if self.structure == "dense" \
            else self

    def evaluate(self, phases) -> np.ndarray:
        """The element as one dense 4x4 on the grid of ``phases``, shape
        ``omega.shape + (4, 4)``, built from its block alone: no command
        forms it, but tests and single-element inspection do."""
        u = np.zeros(np.shape(phases.omega) + (4, 4), dtype=complex)
        if self.structure == "dense":
            u[...] = self.block
        elif self.structure == "diagonal":
            for m in range(4):
                u[..., m, m] = phases.phase(m % 2, self.block[m // 2])
        else:
            u[..., :2, :2] = np.moveaxis(self.block(phases), (0, 1),
                                         (-2, -1))
            u[..., 2, 2] = u[..., 3, 3] = 1.0
        return u


def pbs_matrix(alpha: float, beta: float) -> ElementMatrix:
    """Polarising splitter between the two channels.

    alpha mixes the H modes, beta the V modes. The ideal setting
    alpha = beta = pi/2 keeps H in its channel (phase i) and swaps V
    across channels. Angles outside [0, pi/2] only trigger a warning.
    """
    alpha, beta = real(alpha, "pbs: alpha"), real(beta, "pbs: beta")
    if not (0.0 <= alpha <= math.pi / 2 and 0.0 <= beta <= math.pi / 2):
        warnings.warn("pbs angles outside [0, pi/2]; matrix stays unitary "
                      "but the setting is outside the calibrated range",
                      stacklevel=2)
    sa, ca = math.sin(alpha), math.cos(alpha)
    sb, cb = math.sin(beta), math.cos(beta)
    m = np.array([[1j * sa, 0, ca, 0],
                  [0, 1j * cb, 0, sb],
                  [ca, 0, 1j * sa, 0],
                  [0, sb, 0, 1j * cb]], dtype=complex)
    return ElementMatrix("dense", m)


def bs_matrix(theta: float, xi: float) -> ElementMatrix:
    """Polarisation-insensitive coupler between the channels.

    theta couples the H modes, xi the V modes; theta = xi = pi/4 is the
    balanced setting. Angles outside [0, pi/4] only trigger a warning.
    """
    theta, xi = real(theta, "bs: theta"), real(xi, "bs: xi")
    if not (0.0 <= theta <= math.pi / 4 and 0.0 <= xi <= math.pi / 4):
        warnings.warn("bs angles outside [0, pi/4]; matrix stays unitary "
                      "but the setting is outside the calibrated range",
                      stacklevel=2)
    st, ct = math.sin(theta), math.cos(theta)
    sx, cx = math.sin(xi), math.cos(xi)
    m = np.array([[ct, 0, 1j * st, 0],
                  [0, cx, 0, 1j * sx],
                  [1j * st, 0, ct, 0],
                  [0, 1j * sx, 0, cx]], dtype=complex)
    return ElementMatrix("dense", m)


def pm_matrix(phi_h: float, phi_v: float) -> ElementMatrix:
    """Channel-1 phase shifter: phases phi_h and phi_v on 1H and 1V."""
    phi_h, phi_v = real(phi_h, "pm: phi_h"), real(phi_v, "pm: phi_v")
    m = np.diag([np.exp(1j * phi_h), np.exp(1j * phi_v), 1.0, 1.0])
    return ElementMatrix("dense", m)


def pc_matrix(poling_period: float, length: float,
              kappa: float) -> ElementMatrix:
    """Polarisation converter in channel 1 (poled H <-> V coupling).

    The 2x2 channel-1 block follows from coupled-mode evolution over
    ``length`` with coupling ``kappa`` (rad/um) and wavelength-dependent
    mismatch set by ``poling_period``; channel 2 is untouched. The
    indices come from the grid's ``PhaseTable``.
    """
    _grating(poling_period)
    length, kappa = cmt._check_section("pc", length, kappa)

    def block(phases):
        # diag(1, i) @ core @ diag(1, -i), the converter's H/V phase
        # convention applied to the coupled-mode core (cmt), which runs at
        # the opposite detuning in this basis
        lam = wavelength_from_omega(phases.omega)
        n_h, n_v = phases.indices
        dk = _pc_grating_mismatch(n_h, n_v, lam, poling_period)
        cosp, d, b = cmt._core_terms(kappa, -dk, length)
        return np.array([[cosp - 1j * d, -b], [b, cosp + 1j * d]])

    return ElementMatrix("channel1", block)


def fp_matrix(l1: float, l2: float) -> ElementMatrix:
    """Two parallel dispersive straights: length l1 in channel 1, l2 in 2.

    Pure diagonal phases exp(i w n_pol(w) l / c) per mode.
    """
    l1, l2 = real(l1, "fp: l1"), real(l2, "fp: l2")
    if l1 < 0.0 or l2 < 0.0:
        raise RangeError(f"fp lengths ({l1}, {l2}) um must be >= 0")
    return ElementMatrix("diagonal", (l1, l2))


def eo_bs_matrix(kappa_c: float, half_length: float, dbeta_1: float,
                 dbeta_2: float, dbeta_1_v: float | None = None,
                 dbeta_2_v: float | None = None) -> ElementMatrix:
    """Electro-optically tuned directional coupler between the channels.

    Two sections of length ``half_length`` with detunings dbeta_1 then
    dbeta_2 (rad/um); each polarisation sees the same coupler unless the
    V-mode detunings are overridden. Frequency independent within a pulse
    bandwidth, so the element is one constant matrix.
    """
    half_length, kappa_c = cmt._check_section("eobs", half_length, kappa_c)
    if dbeta_1_v is None:
        dbeta_1_v = dbeta_1
    if dbeta_2_v is None:
        dbeta_2_v = dbeta_2

    mh = cmt.compose_sections(kappa_c, (dbeta_1, dbeta_2), half_length)
    mv = cmt.compose_sections(kappa_c, (dbeta_1_v, dbeta_2_v), half_length)
    m = np.zeros((4, 4), dtype=complex)
    # H modes live at indices (0, 2), V modes at (1, 3)
    m[np.ix_((0, 2), (0, 2))] = mh
    m[np.ix_((1, 3), (1, 3))] = mv
    return ElementMatrix("dense", m)


# ---------------------------------------------------------------------------
# voltage calibration layers

PM_U_PI = 5.0  # V for a pi shift on the V mode
PC_U_OFFSET = 5.5  # V, residual-birefringence bias of the converter
PC_KAPPA_PER_VOLT = math.pi / (2.0 * 7600.0 * 20.0)  # rad/(um V)


def pm_phases(voltage: float):
    """Electrode voltage to (phi_h, phi_v) for the phase shifter.

    The V mode picks up pi per PM_U_PI volts; the H mode is three times
    stiffer on this cut, phi_h = phi_v / 3.
    """
    phi_v = math.pi * real(voltage, "pm_phases: voltage") / PM_U_PI
    return phi_v / 3.0, phi_v


def pc_kappa(voltage: float) -> float:
    """Converter drive voltage to coupling strength kappa (rad/um).

    Conversion vanishes at PC_U_OFFSET and grows by PC_KAPPA_PER_VOLT per
    volt of detuning from it; the sign of the drive only flips the
    coupling phase, so the magnitude is returned.
    """
    voltage = real(voltage, "pc_kappa: voltage")
    return abs(PC_KAPPA_PER_VOLT * (voltage - PC_U_OFFSET))


def eo_bs_dbeta(voltage: float) -> float:
    """Section electrode voltage to propagation-constant detuning."""
    return cmt.EO_BS_DBETA_PER_VOLT * real(voltage, "eo_bs_dbeta: voltage")
