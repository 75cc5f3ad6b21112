"""Dense references for the tests: chips, coincidences, one coupled-mode
section in closed form, stepped couplers by direct ODE integration, and
the chip walked on every grid row.

A chip's U is the ``np.matmul`` product of its elements' dense 4x4s, each
written straight from its block (``ElementMatrix.evaluate``), first
element acting first. The dense references walk no chain, so the
library's walk, its live sums and the chunked exchange kernel are checked
against an independent computation.

``row_walk`` stands in for ``detection._chip_on_rows``: it walks the chip
on every grid row, chunk by chunk. On a ``PhaseTable`` it is the float64
row walk; on an ``ExtendedPhases`` it is the pointwise extended-precision
phase path, the model's exact value up to eps_ld k L ~ 3e-14 rad per
straight, against which the row walk's rounding is measured.
"""

import numpy as np
from scipy.integrate import solve_ivp

from qpic.circuit import element_matrices
from qpic.dispersion import C_UM_PS, default_material
from qpic.elements import PhaseTable
from qpic.source import _row_blocks, _trapezoid_weights

TWO_PI = np.longdouble("6.283185307179586476925286766559005768")


class ExtendedPhases(PhaseTable):
    """A PhaseTable on ``omega`` in np.longdouble: the model's indices at
    extended precision, and each straight phase n w L / c formed and
    reduced mod 2 pi in extended precision before it is rounded to a
    double and exponentiated."""

    def __init__(self, model, omega, temperature):
        super().__init__(model, np.asarray(omega, dtype=np.longdouble),
                         temperature)

    def _evaluate(self, pol, length):
        x = self.indices[pol] * self.omega * np.longdouble(length) / C_UM_PS
        return np.exp(1j * np.fmod(x, TWO_PI).astype(float))


def row_walk(table=PhaseTable):
    """A stand-in for ``detection._chip_on_rows`` that walks every chunk
    on its own grid rows with a ``table`` of their frequencies."""

    def chip(jsa, spec, fields_of):
        s, d = jsa.sum_grid, jsa.diff_grid
        for rows in _row_blocks(len(s), len(d)):
            phases = table(spec.model, (s[rows, None] + d) / 2.0,
                           spec.temperature)
            yield rows, fields_of(phases), tuple(np.asarray(k, dtype=float)
                                                 for k in phases.k)

    return chip


def phase_table(omega, model=None, temperature=None) -> PhaseTable:
    """The PhaseTable on ``omega`` (the bundled material by default)."""
    return PhaseTable(model or default_material(),
                      np.asarray(omega, dtype=float), temperature)


def chip_matrix(spec, omega) -> np.ndarray:
    """U of the whole chip at ``omega``, shape omega.shape + (4, 4)."""
    phases = phase_table(omega, spec.model, spec.temperature)
    u = np.broadcast_to(np.eye(4, dtype=complex), np.shape(omega) + (4, 4))
    for matrix in element_matrices(spec):
        u = np.matmul(matrix.evaluate(phases), u)
    return u


def coincidence(jsa, spec, mb, mc) -> float:
    """The exchange sum for detected modes ``mb`` (channel 1) and ``mc``
    (channel 2), point by point: detector b sees the signal frequency of
    the grid point, detector c the idler one, and the exchange term swaps
    which photon reaches which detector."""
    s, d = jsa.sum_grid, jsa.diff_grid
    u_b = chip_matrix(spec, (s[:, None] + d[None, :]) / 2.0)
    u_c = chip_matrix(spec, (s[:, None] - d[None, :]) / 2.0)
    # conjugated columns: signal enters 1H (column 0), idler 1V (column 1)
    signal_b, idler_b = np.conj(u_b[..., :, 0]), np.conj(u_b[..., :, 1])
    signal_c, idler_c = np.conj(u_c[..., :, 0]), np.conj(u_c[..., :, 1])
    w_sum, w_diff = _trapezoid_weights(s), _trapezoid_weights(d)
    f = jsa.amplitude
    n_s, n_d = f.shape
    total = 0.0
    for i in range(n_s):
        for j in range(n_d):
            jc = n_d - 1 - j
            amp = (f[i, j] * signal_b[i, j, mb] * idler_c[i, j, mc]
                   + f[i, jc] * idler_b[i, j, mb] * signal_c[i, j, mc])
            total += 0.5 * w_sum[i] * w_diff[j] * abs(amp) ** 2
    return total


def coupling_matrix(kappa, dbeta, z) -> np.ndarray:
    """The closed-form transfer matrix of one uniform coupled-mode section
    on (A_te, A_tm), written out entry by entry from the formula in the
    ``qpic.cmt`` docstring, with no shared kernel; shape
    ``broadcast_shape + (2, 2)``."""
    kappa, dbeta, z = (np.asarray(v, dtype=float) for v in (kappa, dbeta, z))
    s = np.hypot(kappa, dbeta / 2.0)
    s_safe = np.where(s == 0.0, 1.0, s)
    cosp, sinp = np.cos(s * z), np.sin(s * z)
    d = (dbeta / 2.0) / s_safe * sinp
    b = kappa / s_safe * sinp
    e = np.exp(1j * dbeta * z / 2.0)
    out = np.empty(np.broadcast_shapes(kappa.shape, dbeta.shape, z.shape)
                   + (2, 2), dtype=complex)
    out[..., 0, 0] = (cosp - 1j * d) * e
    out[..., 0, 1] = -1j * b * e
    out[..., 1, 0] = -1j * b * np.conj(e)
    out[..., 1, 1] = (cosp + 1j * d) * np.conj(e)
    return out


def ode_transfer(kappa, sections, length):
    """Integrate the two coupled amplitudes directly.

    sections: list of detunings, each acting over an equal slice of the
    total length. Returns the 2x2 transfer matrix.
    """
    edges = np.linspace(0.0, length * len(sections), len(sections) + 1)
    started = np.concatenate([[0.0], np.cumsum(np.asarray(sections) * length)])

    def rhs(z, y):
        idx = min(int(z // length), len(sections) - 1)
        db = sections[idx]
        # the frame phase is the running integral of the detuning
        phase = started[idx] + db * (z - edges[idx])
        return [-1j * kappa * y[1] * np.exp(1j * phase),
                -1j * kappa * y[0] * np.exp(-1j * phase)]

    cols = []
    for start in (np.array([1.0 + 0j, 0.0j]), np.array([0.0j, 1.0 + 0j])):
        sol = solve_ivp(rhs, (edges[0], edges[-1]), start, method="DOP853",
                        rtol=1e-12, atol=1e-13, dense_output=False)
        cols.append(sol.y[:, -1])
    return np.stack(cols, axis=1)
