"""Dense references for the tests: chips and coincidences.

A chip's U is the ``np.matmul`` product of its elements' dense 4x4s, each
written straight from its block (``ElementMatrix.evaluate``), first
element acting first. Nothing here walks a chain, so the library's walk,
its live sums and the chunked exchange kernel are checked against an
independent computation.
"""

import numpy as np

from qpic.circuit import element_matrices
from qpic.dispersion import default_material
from qpic.elements import PhaseTable
from qpic.source import _trapezoid_weights


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
