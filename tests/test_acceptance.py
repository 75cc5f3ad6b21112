"""End-to-end acceptance checks at production resolution.

Each test prints one PASS/FAIL line and appends it to acceptance_report.txt
in the repository root. Expensive scans are cached at module level and
shared between checks.
"""

import dataclasses
import math
import time
from pathlib import Path

import numpy as np
import pytest

import qpic
from qpic.cmt import compose_sections, pc_window
from qpic.detection import apply_imperfection
from tests import oracles
from tests.conftest import bundled, walked

GRID = qpic.GridSpec(512, 512)
DELAYS = qpic.default_delay_values(105)
SWEEP_DELAYS = qpic.default_delay_values(41)

_REPORT = Path(__file__).resolve().parent.parent / "acceptance_report.txt"
_cache = {}


@pytest.fixture(scope="module", autouse=True)
def _fresh_report():
    _REPORT.write_text("")
    yield


def report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    with _REPORT.open("a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    assert ok, line


def get(key, builder):
    if key not in _cache:
        t0 = time.perf_counter()
        _cache[key] = builder()
        _cache[key + "_seconds"] = time.perf_counter() - t0
    return _cache[key]


def the_chip():
    return get("chip", lambda: qpic.parse_netlist(bundled("ideal_chip.net")))


def jsa_1ns():
    chip = the_chip()
    return get("jsa_1ns", lambda: qpic.build_jsa(
        chip.model, chip.source, GRID))


def scan_ideal():
    return get("scan_ideal", lambda: qpic.hom_scan(jsa_1ns(), the_chip(), DELAYS))


def with_pc_length(spec, length):
    return spec.with_params("pc", length=length,
                            kappa=math.pi / (2.0 * length))


def test_criterion_1_ideal_dip():
    s = scan_ideal()
    secs = _cache["scan_ideal_seconds"] + _cache["jsa_1ns_seconds"]
    ok = (s.minimum < 0.02 and abs(s.baseline - 0.5) <= 0.02
          and s.visibility > 0.96 and secs < 120.0)
    report(1, ok,
           f"min={s.minimum:.4f} (<0.02), baseline={s.baseline:.4f} "
           f"(0.5+/-0.02), visibility={s.visibility:.4f} (>0.96), "
           f"built in {secs:.1f}s")


def test_reported_quantities_converge_with_grid():
    # the trapezoid rule converges at second order from 128^2 up; the
    # 256^2 -> 512^2 gaps are 4.7e-8 (visibility), 2.2e-8 (minimum) and
    # 6.1e-6 um (FWHM)
    chip = the_chip()
    half = qpic.hom_scan(qpic.build_jsa(chip.model, chip.source,
                                        qpic.GridSpec(256, 256)),
                         chip, DELAYS)
    full = scan_ideal()
    assert abs(half.visibility - full.visibility) <= 1e-6
    assert abs(half.minimum - full.minimum) <= 1e-7
    assert abs(half.dip_fwhm - full.dip_fwhm) <= 1e-4


def test_criterion_2_pulse_duration():
    chip = the_chip()
    pump = dataclasses.replace(chip.source, pulse_duration=1.0)

    def build():
        jsa = qpic.build_jsa(chip.model, pump, GRID)
        return qpic.hom_scan(jsa, chip, DELAYS)

    fast = get("scan_1ps", build)
    slow = scan_ideal()
    diff = fast.minimum - slow.minimum
    ok = fast.minimum > slow.minimum and diff > 0.01
    report(2, ok,
           f"min(1ps)={fast.minimum:.4f} > min(1ns)={slow.minimum:.4f}, "
           f"difference={diff:.4f} (>0.01)")


def test_criterion_3_pdc_length():
    chip = the_chip()

    def build():
        spec = dataclasses.replace(chip.source, pdc_length=10700.0)
        jsa = qpic.build_jsa(chip.model, spec, GRID)
        return qpic.hom_scan(jsa, dataclasses.replace(chip, source=spec),
                             DELAYS)

    short = get("scan_short_pdc", build)
    long_ = scan_ideal()
    ratio = long_.dip_fwhm / short.dip_fwhm

    # independent prediction: stretching the source by dL delays the
    # V-born photon by an extra dL/2 of birefringent group walkoff,
    # compensated in the scanned channel at the V group index
    w_deg = qpic.omega_from_wavelength(qpic.degenerate_wavelength(
        chip.model, chip.source.poling_period))
    ngh = qpic.C_UM_PS / qpic.group_velocity(chip.model, "H", w_deg)
    ngv = qpic.C_UM_PS / qpic.group_velocity(chip.model, "V", w_deg)
    predicted = (20700.0 - 10700.0) / 2.0 * (ngh - ngv) / ngv
    shift = long_.dip_position - short.dip_position
    tol = 0.05 * long_.dip_fwhm
    ok = ratio > 1.5 and abs(shift - predicted) < tol
    report(3, ok,
           f"fwhm(2.07cm)={long_.dip_fwhm:.1f}um vs fwhm(1.07cm)="
           f"{short.dip_fwhm:.1f}um, ratio={ratio:.2f} (>1.5); "
           f"shift={shift:.1f}um vs group-delay prediction={predicted:.1f}um, "
           f"|diff|={abs(shift - predicted):.1f} (<{tol:.1f})")


def test_criterion_4_pc_length():
    chip = the_chip()
    narrow = get("scan_long_pc", lambda: qpic.hom_scan(
        jsa_1ns(), with_pc_length(chip, 25400.0), DELAYS))
    wide = scan_ideal()
    ok = (narrow.dip_fwhm > wide.dip_fwhm
          and narrow.maximum < wide.maximum)
    report(4, ok,
           f"L_PC=25400: dip fwhm {narrow.dip_fwhm:.1f}um > "
           f"{wide.dip_fwhm:.1f}um at 2540, max {narrow.maximum:.4f} < "
           f"{wide.maximum:.4f} (strictly decreasing)")


def test_criterion_5_imperfections():
    chip = the_chip()
    jsa = jsa_1ns()
    insensitive = "insensitive"

    # with the recombining splitter removed the photons are guaranteed to
    # separate, so any-polarisation coincidence must sit at exactly one
    bs_off = qpic.hom_scan(jsa, apply_imperfection(chip, "bs", 1.0),
                           SWEEP_DELAYS, insensitive)
    bs_dev = float(np.max(np.abs(bs_off.probabilities - 1.0)))

    pbs_off = qpic.hom_scan(jsa, apply_imperfection(chip, "pbs", 1.0),
                            SWEEP_DELAYS)
    pc_off = qpic.hom_scan(jsa, apply_imperfection(chip, "pc", 1.0),
                           SWEEP_DELAYS)

    quarter = {}
    for target in ("bs", "pbs", "pc"):
        scan = qpic.hom_scan(jsa, apply_imperfection(chip, target, 0.25),
                             SWEEP_DELAYS)
        quarter[target] = scan
    _cache["quarter_scans"] = quarter

    ok = (bs_dev <= 1e-6
          and pbs_off.maximum < 0.01 and pc_off.maximum < 0.01
          and all(s.minimum < 0.25 for s in quarter.values()))
    report(5, ok,
           f"f=1 bs: max|P-1|={bs_dev:.1e} (<=1e-6, any-pol); "
           f"f=1 pbs/pc: max P(V,V)={pbs_off.maximum:.2e}/"
           f"{pc_off.maximum:.2e} (<0.01); f=0.25 dips="
           + "/".join(f"{quarter[t].minimum:.3f}" for t in ("bs", "pbs", "pc"))
           + " (<0.25)")


def test_criterion_6_temperature():
    chip = the_chip()
    temps = [19.5, 21.5, 23.5, 24.5, 25.5, 27.5, 29.5, 40.0]
    points = get("temp_points", lambda: qpic.temperature_scan(
        chip, temps, delay_values=SWEEP_DELAYS, grid=GRID))
    by_t = {p.temperature: p for p in points}
    vis = {t: by_t[t].scan.visibility for t in temps}

    peak_ok = max(vis, key=vis.get) == 24.5
    rising = all(vis[a] < vis[b] for a, b in
                 [(19.5, 21.5), (21.5, 23.5), (23.5, 24.5)])
    falling = all(vis[a] > vis[b] for a, b in
                  [(24.5, 25.5), (25.5, 27.5), (27.5, 29.5)])
    outside = [p for p in points if p.outside_window]
    outside_ok = len(outside) > 0 and all(p.scan.visibility < 0.05
                                           for p in outside)

    ok = peak_ok and rising and falling and outside_ok
    report(6, ok,
           "visibility " + " ".join(f"{t}:{vis[t]:.3f}" for t in temps)
           + f"; peak at degeneracy={peak_ok}, monotone within 5C={rising and falling},"
           f" outside-window points {[p.temperature for p in outside]}"
           f" all <0.05={outside_ok}")


def test_criterion_7_dispersion_slopes():
    chip = the_chip()
    model = chip.model
    t_grid = np.linspace(15.0, 40.0, 6)

    deg = np.array([qpic.degenerate_wavelength(
        model, chip.source.poling_period, t) for t in t_grid])
    deg_slope = np.polyfit(t_grid, deg, 1)[0] * 1e3  # nm per C

    pcw = np.array([qpic.pc_matched_wavelength(model, 21.124408686252, t)
                    for t in t_grid])
    pc_slope = np.polyfit(t_grid, pcw, 1)[0] * 1e3

    detune = 2e-4
    curve = qpic.tuning_curve(model, chip.source.poling_period, 24.5,
                              [0.775 - detune, 0.775 + detune])
    splits = np.abs(curve.signal - curve.idler) / detune
    split_ratio = float(np.nanmean(splits))

    ok = (-0.14 * 1.3 <= deg_slope <= -0.14 * 0.7
          and -0.73 * 1.3 <= pc_slope <= -0.73 * 0.7
          and 15.0 * 0.7 <= split_ratio <= 15.0 * 1.3)
    report(7, ok,
           f"degeneracy slope={deg_slope:.4f} nm/C (-0.14 +/-30%), "
           f"conversion-window slope={pc_slope:.4f} nm/C (-0.73 +/-30%), "
           f"signal-idler split={split_ratio:.2f} x pump detuning (15 +/-30%)")


def test_criterion_8_pc_spectrum():
    model = the_chip().model
    length = 7600.0
    w1 = pc_window(model, 21.4, length, math.pi / (2 * length)).fwhm * 1e3
    w2 = pc_window(model, 21.4, 2 * length, math.pi / (4 * length)).fwhm * 1e3
    ratio = w2 / w1
    ok = 3.2 * 0.7 <= w1 <= 3.2 * 1.3 and abs(ratio - 0.5) <= 0.02
    report(8, ok,
           f"fwhm={w1:.3f} nm at 7.6mm (3.2 +/-30%), "
           f"fwhm(2L)/fwhm(L)={ratio:.4f} (0.5 +/-0.02)")


def test_criterion_9_property_suite():
    chip = the_chip()
    model = chip.model
    omega = qpic.omega_from_wavelength(np.linspace(1.5, 1.6, 9))

    # unitarity of every element kind and of the composed chip
    mats = [
        qpic.pbs_matrix(0.7, 1.2),
        qpic.bs_matrix(0.5, 0.785),
        qpic.pm_matrix(0.3, 2.2),
        qpic.pc_matrix(21.124408686252, 2540.0, 6.184237507066522e-4),
        qpic.fp_matrix(5000.0, 15000.0),
        qpic.eo_bs_matrix(math.pi / 16000.0, 4000.0, 1e-4, -1e-4),
    ]
    # each element from its block; the chip from the walk the commands run
    phases = oracles.phase_table(omega, model)
    eye = np.eye(4)
    defect = max(
        float(np.max(np.abs(np.swapaxes(u.conj(), -1, -2) @ u - eye)))
        for u in [em.evaluate(phases) for em in mats]
        + [walked(chip, omega)])

    # normalization drift under 2x refinement of the default grid
    fine = qpic.build_jsa(chip.model, chip.source,
                          qpic.GridSpec(1024, 1024))
    drift = abs(fine.meta["raw_norm"] - jsa_1ns().meta["raw_norm"]) \
        / fine.meta["raw_norm"]

    # literal double-loop oracle on a 3x3 grid
    tiny = qpic.build_jsa(chip.model, chip.source,
                          qpic.GridSpec(3, 3))
    oracle_diff = abs(qpic.coincidence(tiny, chip)
                      - oracles.coincidence(tiny, chip, 1, 3))

    # closed-form coupled-mode solution against direct integration
    cmt_err = 0.0
    for kappa, dbs, length in [(2e-4, (5e-4,), 3000.0),
                               (math.pi / 16000.0, (3e-4, -1e-4), 4000.0)]:
        analytic = compose_sections(kappa, dbs, length)
        numeric = oracles.ode_transfer(kappa, dbs, length)
        cmt_err = max(cmt_err, float(np.max(np.abs(analytic - numeric))))

    # every probability computed for the other criteria stays in range
    probs = [scan_ideal().probabilities]
    for key in ("scan_1ps", "scan_short_pdc", "scan_long_pc"):
        if key in _cache:
            probs.append(_cache[key].probabilities)
    for s in _cache.get("quarter_scans", {}).values():
        probs.append(s.probabilities)
    if "temp_points" in _cache:
        probs.extend(p.scan.probabilities for p in _cache["temp_points"])
    all_p = np.concatenate(probs)
    in_range = bool(np.all(all_p >= 0.0) and np.all(all_p <= 1.0 + 1e-9))

    ok = (defect < 1e-12 and drift < 1e-4 and oracle_diff < 1e-12
          and cmt_err < 1e-8 and in_range)
    report(9, ok,
           f"unitarity defect={defect:.1e} (<1e-12), refinement drift="
           f"{drift:.1e} (<1e-4), 3x3 oracle diff={oracle_diff:.1e} "
           f"(<1e-12), coupled-mode vs ODE={cmt_err:.1e} (<1e-8), "
           f"{all_p.size} probabilities in [0,1+1e-9]={in_range}")
