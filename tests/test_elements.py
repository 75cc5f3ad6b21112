"""4x4 element matrices: structure, unitarity, and calibration layers."""

import math

import numpy as np
import pytest

import qpic
from qpic import cmt
from qpic.dispersion import (_pc_grating_mismatch, omega_from_wavelength,
                             pc_matched_wavelength, wavelength_from_omega,
                             wavevector)
from qpic.elements import (BASIS, PhaseTable, bs_matrix, eo_bs_dbeta,
                           eo_bs_matrix, fp_matrix, mode_index, pbs_matrix,
                           pc_kappa, pc_matrix, pm_matrix, pm_phases)
from tests import oracles

OMEGA_BAND = omega_from_wavelength(np.linspace(1.5, 1.6, 7))


def dense(em, omega, model=None):
    return em.evaluate(oracles.phase_table(omega, model))


def unitarity_defect(u):
    eye = np.eye(4)
    prod = np.swapaxes(u.conj(), -1, -2) @ u
    return np.max(np.abs(prod - eye))


def test_basis_order():
    assert BASIS == ("1H", "1V", "2H", "2V")
    assert mode_index(1, "H") == 0
    assert mode_index(1, "V") == 1
    assert mode_index(2, "H") == 2
    assert mode_index(2, "V") == 3


@pytest.mark.parametrize("em", [
    pbs_matrix(0.3, 1.1), bs_matrix(0.2, 0.7), pm_matrix(0.4, 1.9),
    eo_bs_matrix(1e-4, 4000.0, 2e-4, -1e-4, dbeta_2_v=3e-4),
], ids=["pbs", "bs", "pm", "eobs"])
def test_constant_elements_hold_one_2x2_per_polarisation(em):
    # (T_H, T_V) on the modes (1H, 2H) and (1V, 2V), nothing across them
    assert em.structure == "polarisation"
    assert [t.shape for t in em.block] == [(2, 2), (2, 2)]
    u = dense(em, OMEGA_BAND[0])
    for p, t in enumerate(em.block):
        assert np.array_equal(u[p::2, p::2], t)
        assert not np.any(u[p::2, 1 - p::2])
    transposed = dense(em.transposed(), OMEGA_BAND[0])
    assert np.array_equal(transposed, u.T)


def test_eo_bs_stores_its_couplers():
    em = eo_bs_matrix(1e-4, 4000.0, 2e-4, -1e-4, dbeta_2_v=3e-4)
    for t, dbetas in zip(em.block, [(2e-4, -1e-4), (2e-4, 3e-4)]):
        assert np.array_equal(t, cmt.compose_sections(1e-4, dbetas, 4000.0))


def test_pbs_full_crossing():
    # alpha=beta=pi/2: H stays, V crosses
    u = dense(pbs_matrix(math.pi / 2, math.pi / 2), OMEGA_BAND[0])
    expect = np.array([[1j, 0, 0, 0],
                       [0, 0, 0, 1],
                       [0, 0, 1j, 0],
                       [0, 1, 0, 0]], dtype=complex)
    assert np.allclose(u, expect, atol=1e-15)


def test_pbs_matrix_entries():
    a, b = 0.3, 1.1
    u = dense(pbs_matrix(a, b), OMEGA_BAND[0])
    assert u[0, 0] == pytest.approx(1j * math.sin(a))
    assert u[2, 0] == pytest.approx(math.cos(a))
    assert u[1, 1] == pytest.approx(1j * math.cos(b))
    assert u[3, 1] == pytest.approx(math.sin(b))
    # no H<->V mixing anywhere
    for i in (0, 2):
        for j in (1, 3):
            assert u[i, j] == 0
            assert u[j, i] == 0


def test_bs_matrix_entries():
    t, x = 0.5, 0.7
    u = dense(bs_matrix(t, x), OMEGA_BAND[0])
    assert u[0, 0] == pytest.approx(math.cos(t))
    assert u[2, 0] == pytest.approx(1j * math.sin(t))
    assert u[1, 1] == pytest.approx(math.cos(x))
    assert u[3, 1] == pytest.approx(1j * math.sin(x))
    for i in (0, 2):
        for j in (1, 3):
            assert u[i, j] == 0
            assert u[j, i] == 0


def test_balanced_bs_probabilities():
    u = dense(bs_matrix(math.pi / 4, math.pi / 4), OMEGA_BAND)
    assert np.allclose(np.abs(u[..., 0, 0]) ** 2, 0.5, atol=1e-15)
    assert np.allclose(np.abs(u[..., 2, 0]) ** 2, 0.5, atol=1e-15)


def test_pm_matrix_is_channel1_only():
    u = dense(pm_matrix(0.4, 1.9), OMEGA_BAND[0])
    assert u[0, 0] == pytest.approx(np.exp(1j * 0.4))
    assert u[1, 1] == pytest.approx(np.exp(1j * 1.9))
    assert u[2, 2] == 1
    assert u[3, 3] == 1
    assert unitarity_defect(u) < 1e-15


def test_frequency_independent_elements_broadcast():
    for em in (pbs_matrix(0.2, 0.3), bs_matrix(0.1, 0.2), pm_matrix(0.5, 0.6)):
        u = dense(em, OMEGA_BAND)
        assert u.shape == OMEGA_BAND.shape + (4, 4)
        assert np.allclose(u - u[0], 0, atol=0)


def test_unitarity_random_parameters(model, rng):
    for _ in range(25):
        a, b = rng.uniform(0, math.pi / 2, 2)
        t, x = rng.uniform(0, math.pi / 4, 2)
        ph, pv = rng.uniform(-math.pi, math.pi, 2)
        kappa = rng.uniform(0.0, 2e-3)
        length = rng.uniform(100.0, 8000.0)
        l1, l2 = rng.uniform(100.0, 20000.0, 2)
        mats = [pbs_matrix(a, b), bs_matrix(t, x), pm_matrix(ph, pv),
                pc_matrix(21.4, length, kappa),
                fp_matrix(l1, l2)]
        for em in mats:
            assert unitarity_defect(dense(em, OMEGA_BAND, model)) < 1e-12


def test_fp_phases(model):
    l1, l2 = 5000.0, 7000.0
    u = dense(fp_matrix(l1, l2), OMEGA_BAND, model)
    kh = wavevector(model, "H", OMEGA_BAND)
    kv = wavevector(model, "V", OMEGA_BAND)
    assert np.allclose(u[..., 0, 0], np.exp(1j * kh * l1), atol=1e-14)
    assert np.allclose(u[..., 1, 1], np.exp(1j * kv * l1), atol=1e-14)
    assert np.allclose(u[..., 2, 2], np.exp(1j * kh * l2), atol=1e-14)
    assert np.allclose(u[..., 3, 3], np.exp(1j * kv * l2), atol=1e-14)
    off = u.copy()
    off[..., range(4), range(4)] = 0
    assert np.max(np.abs(off)) == 0


def test_pc_full_conversion_at_matched_wavelength(model):
    length = 7600.0
    kappa = math.pi / (2 * length)
    lam = pc_matched_wavelength(model, 21.4)
    w = omega_from_wavelength(lam)
    u = dense(pc_matrix(21.4, length, kappa), w, model)
    # channel 1: H fully converts to V at the matched wavelength
    assert abs(u[1, 0]) ** 2 == pytest.approx(1.0, abs=1e-9)
    assert abs(u[0, 0]) ** 2 == pytest.approx(0.0, abs=1e-9)
    # the converter's phase convention: H -> V with +1, V -> H with -1
    assert u[1, 0] == pytest.approx(1.0, abs=1e-9)
    assert u[0, 1] == pytest.approx(-1.0, abs=1e-9)
    # channel 2 untouched
    assert u[2, 2] == 1
    assert u[3, 3] == 1


def test_pc_block_matches_framed_core(model, rng):
    # diag(1, i) @ core @ diag(1, -i) as the coupled-mode core times the
    # frame, entry by entry, with the 2x2 axes moved to the front
    frame = np.array([[1.0, -1j], [1j, 1.0]])
    w = omega_from_wavelength(rng.uniform(1.45, 1.65, (37, 23)))
    phases = PhaseTable(model, w, 31.0)
    for kappa in (0.0, 1.3e-4, math.pi / (2 * 7600.0)):
        block = pc_matrix(21.4, 7600.0, kappa).block(phases)
        dk = _pc_grating_mismatch(*phases.indices, wavelength_from_omega(w),
                                  21.4)
        core = cmt._symmetric_core(kappa, -dk, 7600.0) * frame
        assert block.flags.c_contiguous and block.shape == (2, 2, 37, 23)
        assert np.array_equal(block, np.moveaxis(core, (-2, -1), (0, 1)))


def test_pc_zero_coupling_is_phase_only(model):
    u = dense(pc_matrix(21.4, 2000.0, 0.0), OMEGA_BAND, model)
    off = np.abs(u[..., 0, 1]) + np.abs(u[..., 1, 0])
    assert np.max(off) < 1e-15
    assert np.allclose(np.abs(u[..., 0, 0]), 1.0, atol=1e-12)


def test_pc_detuned_conversion_drops(model):
    length = 7600.0
    kappa = math.pi / (2 * length)
    lam0 = pc_matched_wavelength(model, 21.4)
    w0 = omega_from_wavelength(lam0)
    w_off = omega_from_wavelength(lam0 + 0.01)
    em = pc_matrix(21.4, length, kappa)
    on = abs(dense(em, w0, model)[1, 0]) ** 2
    off = abs(dense(em, w_off, model)[1, 0]) ** 2
    assert on > 0.99
    assert off < 0.5


def test_eo_bs_zero_detuning_crossing():
    half = 4000.0
    kappa_c = math.pi / (4 * half)
    u = dense(eo_bs_matrix(kappa_c, half, 0.0, 0.0), OMEGA_BAND[0])
    # total interaction kappa_c*2*half = pi/2: complete channel crossing
    assert abs(u[2, 0]) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert abs(u[0, 0]) ** 2 == pytest.approx(0.0, abs=1e-12)
    assert unitarity_defect(u) < 1e-12


def test_eo_bs_large_detuning_blocks_transfer():
    half = 4000.0
    kappa_c = math.pi / (4 * half)
    db = 200.0 * kappa_c
    u = dense(eo_bs_matrix(kappa_c, half, db, db), OMEGA_BAND[0])
    assert abs(u[2, 0]) ** 2 < 0.01
    assert abs(u[0, 0]) ** 2 > 0.99


def test_eo_bs_polarization_specific_detuning():
    half = 4000.0
    kappa_c = math.pi / (4 * half)
    db = 200.0 * kappa_c
    u = dense(eo_bs_matrix(kappa_c, half, db, db, 0.0, 0.0), OMEGA_BAND[0])
    # H detuned out, V still crosses
    assert abs(u[0, 0]) ** 2 > 0.99
    assert abs(u[3, 1]) ** 2 > 0.99


def test_pm_phase_calibration():
    ph, pv = pm_phases(5.0)
    assert pv == pytest.approx(math.pi)
    assert ph == pytest.approx(math.pi / 3)
    ph0, pv0 = pm_phases(0.0)
    assert ph0 == 0 and pv0 == 0


def test_pc_kappa_calibration():
    # offset voltage gives zero coupling; never negative
    assert pc_kappa(5.5) == 0.0
    assert pc_kappa(0.0) > 0
    assert pc_kappa(11.0) == pytest.approx(pc_kappa(0.0))


def test_eo_bs_dbeta_linear():
    assert eo_bs_dbeta(0.0) == 0.0
    assert eo_bs_dbeta(10.0) == pytest.approx(2e-4)
    assert eo_bs_dbeta(-10.0) == pytest.approx(-2e-4)


def test_angle_range_warnings():
    with pytest.warns(UserWarning):
        pbs_matrix(2.0, 0.1)
    with pytest.warns(UserWarning):
        bs_matrix(1.0, 0.1)
