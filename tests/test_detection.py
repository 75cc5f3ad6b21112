"""Coincidence probabilities, interferometer scans, and sweeps."""

import dataclasses
import functools
import math
import os
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpic
from qpic import detection, source, workers
from qpic.circuit import (CHANNEL1_INPUTS, element_matrices,
                          parse_netlist_text, walk)
from qpic.detection import (IMPERFECTION_TARGETS, QUERIES,
                            apply_imperfection, coincidence,
                            default_delay_values, hom_scan,
                            imperfection_sweep, temperature_scan)
from qpic.elements import PhaseTable
from qpic.errors import RangeError, ValidationError
from tests import oracles

SOURCE_ONLY = """
[source]
pump_wavelength = 0.775
pulse_duration = 1000.0
poling_period = 9.217870197227
pdc_length = 20700.0
"""

DELAYS = np.linspace(-1500.0, 3700.0, 27)


@pytest.fixture(scope="module")
def scan_vv(chip, jsa_small):
    return hom_scan(jsa_small, chip, DELAYS)


def test_identity_circuit_no_coincidence(jsa_small):
    bare = parse_netlist_text(SOURCE_ONLY)
    # both photons stay in channel 1, so the two detectors never fire together
    assert coincidence(jsa_small, bare) == pytest.approx(0.0, abs=1e-15)
    assert coincidence(jsa_small, bare, "insensitive") == pytest.approx(0.0, abs=1e-15)


def test_double_loop_oracle(chip, jsa_small):
    # independent re-computation of the coincidence sum, point by point,
    # on the dense product of the chip's elements
    fast = coincidence(jsa_small, chip, "VV")
    total = oracles.coincidence(jsa_small, chip, 1, 3)  # 1V and 2V
    assert fast == pytest.approx(total, abs=1e-12)


def test_exchange_amplitude_alignment(chip, jsa_small):
    # the two pairings must be evaluated at swapped frequencies; with the
    # exchange term dropped the probabilities differ
    query = "VH"
    p_vh = coincidence(jsa_small, chip, query)
    p_hv = coincidence(jsa_small, chip, "HV")
    # the bundled chip is symmetric enough that both orientations are close
    assert p_vh == pytest.approx(p_hv, abs=0.05)


def test_bs_only_closed_form(jsa_small):
    theta, xi = 0.6, 0.3
    text = SOURCE_ONLY + f"\nelement bs\ntheta = {theta}\nxi = {xi}\n"
    spec = parse_netlist_text(text)
    # photons distinguishable by polarization: no interference term
    p = coincidence(jsa_small, spec, "HV")
    assert p == pytest.approx(np.cos(theta) ** 2 * np.sin(xi) ** 2, abs=1e-12)
    p2 = coincidence(jsa_small, spec, "VH")
    assert p2 == pytest.approx(np.cos(xi) ** 2 * np.sin(theta) ** 2, abs=1e-12)


def test_insensitive_is_sum_of_orientations(chip, jsa_small):
    total = coincidence(jsa_small, chip, "insensitive")
    parts = sum(
        coincidence(jsa_small, chip, b + c)
        for b in "HV" for c in "HV")
    assert total == pytest.approx(parts, abs=1e-12)


def test_probabilities_in_range(chip, jsa_small):
    for b in "HV":
        for c in "HV":
            p = coincidence(jsa_small, chip, b + c)
            assert -1e-12 <= p <= 1.0 + 1e-9


def test_scan_summary(scan_vv):
    s = scan_vv
    assert len(s.values) == len(s.probabilities) == len(DELAYS)
    assert not s.boundary_warning
    assert s.baseline == pytest.approx(0.489, abs=0.02)
    assert s.minimum < 0.05
    assert s.visibility > 0.9
    assert 900.0 < s.dip_position < 1400.0


ORACLE_DELAYS = np.linspace(-1500.0, 3700.0, 9)


@pytest.fixture(scope="module")
def jsa_tiny(chip):
    return qpic.build_jsa(chip.model, chip.source,
                          qpic.GridSpec(64, 64))


def assert_scan_matches_stretched_chip(jsa, chip, delays, query, tol):
    """Each point of the scan of ``chip`` equals coincidence() on the chip
    whose scanned fp, the second one, has channel-2 length l2 + delta,
    routed through the whole chain without the factored delay kernel."""
    scan = hom_scan(jsa, chip, delays, query)
    idx = [i for i, d in enumerate(chip.elements) if d.kind == "fp"][1]
    fp = chip.elements[idx]
    for delta, p in zip(delays, scan.probabilities):
        elements = list(chip.elements)
        elements[idx] = dataclasses.replace(
            fp, params={**fp.params, "l2": fp.params["l2"] + delta})
        stretched = chip.with_elements(elements)
        assert p == pytest.approx(coincidence(jsa, stretched, query),
                                  abs=tol)


@pytest.mark.parametrize("query", ["VV", "insensitive"],
                         ids=["VV", "insensitive"])
@pytest.mark.parametrize("pbs_error", [0.0, 0.25], ids=["ideal", "leaky-pbs"])
def test_scan_matches_stretched_chip(chip, jsa_tiny, query, pbs_error):
    """Each scan point equals coincidence() on the stretched chip. A leaky
    pbs puts both photons in both channel-2 modes at the scanned fp, so
    both delay phases matter.

    The two differ only by phase rounding: the stretched fp rounds
    k (l2 + delta), about 1e5 rad, where the scan multiplies exp(i k l2) by
    exp(i k delta), which moves the probabilities by up to 7e-13 at 64x64.
    """
    chip = apply_imperfection(chip, "pbs", pbs_error)
    assert_scan_matches_stretched_chip(jsa_tiny, chip, ORACLE_DELAYS, query,
                                       1e-11)


def test_insensitive_scan_is_sum_of_pairings(chip, jsa_tiny):
    # the four pairings share field rows; none may leak into another
    chip = apply_imperfection(chip, "pbs", 0.25)
    total = hom_scan(jsa_tiny, chip, ORACLE_DELAYS, "insensitive")
    parts = sum(hom_scan(jsa_tiny, chip, ORACLE_DELAYS,
                         b + c).probabilities
                for b in "HV" for c in "HV")
    np.testing.assert_allclose(total.probabilities, parts, rtol=0.0,
                               atol=1e-15)


DELAY_GRIDS = {
    # at chunks of 10 x 64 points, three tiles of 10 delays and a partial one
    "tiles": np.linspace(-1500.0, 3700.0, 37),
    # linspace steps that differ from the mean step by an ulp
    "jitter": np.linspace(-1000.0, 1000.0, 100),
    "uneven": np.cumsum([-1200.0, 310.0, 95.0, 400.0, 12.5, 250.0, 700.0,
                         33.0, 180.0, 520.0, 61.0, 1000.0]),
}


@pytest.mark.parametrize("query", ["VV", "insensitive"],
                         ids=["VV", "insensitive"])
@pytest.mark.parametrize("grid", list(DELAY_GRIDS))
def test_delay_grids_match_stretched_chip(chip, jsa_tiny, query, grid,
                                          monkeypatch):
    """Delay grids in tiles ending in a partial one, with jittered steps
    and with uneven steps, over grid chunks that end in a partial one,
    keep every point equal to coincidence() on the stretched leaky-pbs
    chip."""
    # chunks of 10 rows, so the 64-row grid ends in a partial chunk
    monkeypatch.setattr(source, "CHUNK_POINTS", 10 * 64)
    chip = apply_imperfection(chip, "pbs", 0.25)
    assert_scan_matches_stretched_chip(jsa_tiny, chip, DELAY_GRIDS[grid],
                                       query, 1e-11)


@pytest.fixture(scope="module")
def jsa_short(chip):
    pump = dataclasses.replace(chip.source, pulse_duration=1.0)
    return qpic.build_jsa(chip.model, pump, qpic.GridSpec(64, 64))


@pytest.mark.parametrize("query", ["VV", "insensitive"],
                         ids=["VV", "insensitive"])
def test_short_pump_scan_matches_stretched_chip(chip, jsa_short, query,
                                                monkeypatch):
    """A 1 ps pump widens the sum axis a thousandfold, so the expansion
    needs many row blocks; every point still equals coincidence() on the
    stretched leaky-pbs chip."""
    monkeypatch.setattr(source, "CHUNK_POINTS", 10 * 64)
    values = detection._Block.values
    blocks = []  # the scan evaluates each block once, when it closes

    def recording(self, delays):
        blocks.append(self)
        return values(self, delays)

    monkeypatch.setattr(detection._Block, "values", recording)
    chip = apply_imperfection(chip, "pbs", 0.25)
    assert_scan_matches_stretched_chip(jsa_short, chip, DELAY_GRIDS["tiles"],
                                       query, 1e-11)
    assert len(blocks) > 10


def test_block_matches_direct_sum(rng):
    """A block at the rho cap, fed in two chunks, the rows near its
    reference first with the fewer terms they need, gives
    2 Re sum Y exp(i theta delta) at every delay within its rounding bound
    e^rho eps_mach sum |Y|. Its last terms, of order rho^N / N!, matter at
    that level."""
    delays = np.array([-3700.0, -1234.5, 0.0, 17.0, 2500.0, 3700.0])
    rows, cols = 7, 6
    ref = rng.uniform(0.01, 0.02, cols)
    eps = np.linspace(-1.0, 1.0, rows)[:, None] \
        * rng.uniform(0.5, 1.0, cols) * detection.RHO_CAP / 3700.0
    y = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    rho = 3700.0 * np.max(np.abs(eps))
    block = detection._Block(ref)
    for part in ([2, 3, 4], [0, 1, 5, 6]):
        terms = detection._terms(3700.0 * np.max(np.abs(eps[part])))
        block.add(y[part], eps[part].copy(), terms)
        assert len(block.moments) == terms + 1
    assert len(block.moments) > 25
    direct = [2.0 * np.sum(y * np.exp(1j * (ref + eps) * d)).real
              for d in delays]
    np.testing.assert_allclose(block.values(delays), direct, rtol=0.0,
                               atol=math.exp(rho) * np.finfo(float).eps
                               * np.abs(y).sum())


# the canonical exponents of the insensitive query on the bundled chip
EXPONENTS = [(0, 1, 0, 0), (0, 1, 0, -1), (1, 0, 0, 0), (1, 0, -1, 0),
             (1, 0, 0, 1), (1, 0, 0, -1)]


def _grid_k(jsa, chip):
    """(k_H, k_V) on the whole grid, as the chunks of a scan read them."""
    ks = [k for _, _, k in detection._chip_on_rows(jsa, chip, lambda p: [])]
    return tuple(np.concatenate([k[i] for k in ks]) for i in (0, 1))


def _stream(monkeypatch, exponent=detection._exponent):
    """Record, while a scan runs, each block and its adds (exponent, eps,
    terms), keyed by the block's id, and the ids of the blocks in the order
    they are evaluated; ``exponent`` stands in for the scan's theta on a
    chunk's rows."""
    adds, closed = {}, []
    current = []
    add, values = detection._Block.add, detection._Block.values

    def theta_rows(theta, k):
        current[:] = [theta]
        return exponent(theta, k)

    def recording_add(self, y, eps, terms):
        assert id(self) not in closed
        adds.setdefault(id(self), (self, []))[1].append(
            (current[0], eps.copy(), terms))
        return add(self, y, eps, terms)

    def recording_values(self, delays):
        closed.append(id(self))
        return values(self, delays)

    monkeypatch.setattr(detection, "_exponent", theta_rows)
    monkeypatch.setattr(detection._Block, "add", recording_add)
    monkeypatch.setattr(detection._Block, "values", recording_values)
    return adds, closed


@pytest.mark.parametrize("pump", ["long", "short"])
def test_streamed_blocks(chip, jsa_tiny, jsa_short, pump, monkeypatch):
    """Over chunks of 10 rows, every grid row enters exactly one block per
    exponent, in grid order; each block is evaluated once, after its last
    row, and its measured rho = max |eps| max |delta| meets the cap. Each
    chunk's N is the least whose remainder bound rho^(N+1) e^rho / (N+1)!
    at that chunk's rho is at most eps_mach."""
    monkeypatch.setattr(source, "CHUNK_POINTS", 10 * 64)
    jsa = jsa_tiny if pump == "long" else jsa_short
    delays = DELAY_GRIDS["uneven"]
    k = _grid_k(jsa, chip)

    def bound(rho, n):
        return rho ** (n + 1) * math.exp(rho) / math.factorial(n + 1)

    def scan(delays):
        adds, closed = _stream(monkeypatch)
        hom_scan(jsa, chip, delays, "insensitive")
        reach = np.max(np.abs(delays))
        assert sorted(closed) == sorted(adds)
        lines = {theta: [] for theta in EXPONENTS}
        counts = dict.fromkeys(EXPONENTS, 0)
        for block, made in adds.values():
            theta = made[0][0]
            counts[theta] += 1
            assert all(t == theta for t, _, _ in made)
            rhos = [reach * np.max(np.abs(eps)) for _, eps, _ in made]
            assert max(rhos) <= detection.RHO_CAP
            for rho, (_, eps, terms) in zip(rhos, made):
                lines[theta].append(eps + block.ref)
                assert bound(rho, terms) <= np.finfo(float).eps
                assert terms == 0 or bound(rho, terms - 1) \
                    > np.finfo(float).eps
        for theta in EXPONENTS:
            np.testing.assert_allclose(
                np.concatenate(lines[theta]), detection._exponent(theta, k),
                rtol=1e-13)
        return adds, counts

    _, counts = scan(delays)
    if pump == "long":
        assert list(counts.values()) == [1] * len(EXPONENTS)
        return
    assert max(counts.values()) > 10
    # steps so long that the next row always misses the cap: one-row
    # blocks, eps = 0 and N = 0, the direct sum. k_p - k_p^R moves along S
    # only at second order and is left out.
    adds, counts = scan(delays[0] + (delays - delays[0]) * 100.0)
    moving = [theta for theta in EXPONENTS
              if theta[:2] != tuple(-n for n in theta[2:])]
    assert len(moving) == 4
    assert all(counts[theta] == len(jsa.sum_grid) for theta in moving)
    assert all(len(made) == 1 and len(eps) == 1 and terms == 0
               and not eps.any() for _, made in adds.values()
               for theta, eps, terms in made if theta in moving)


def test_streamed_blocks_follow_a_theta_not_monotone_in_s(
        chip, jsa_short, monkeypatch):
    """A synthetic theta that swings back and forth along the sum axis
    across several caps still gives the direct sum
    C + 2 Re sum Y exp(i theta delta) within the rounding bound
    (e^RHO_CAP + 2 max |theta delta|) eps_mach sum |Y|: the series' e^rho
    and the rounding of theta delta in both sums."""
    monkeypatch.setattr(source, "CHUNK_POINTS", 10 * 64)
    delays = DELAY_GRIDS["uneven"]
    reach = np.max(np.abs(delays))
    amplitude = 2.0 * detection.RHO_CAP / reach
    k_h = _grid_k(jsa_short, chip)[0]
    lo, hi = np.min(k_h + k_h[:, ::-1]), np.max(k_h + k_h[:, ::-1])

    def bumpy(theta, k):
        # k_H(w) + k_H(w^R) rises with S; theta turns eight times along it
        s = (k[0] + k[0][:, ::-1] - lo) / (hi - lo)
        return amplitude * np.sin(8.0 * np.pi * s + sum(theta)) \
            * (1.0 + 0.1 * np.cos(np.arange(s.shape[1])))

    thetas, moments = [], []
    original = detection._moments

    def recording(*args):
        total, y = original(*args)
        moments.append((total, {key: v.copy() for key, v in y.items()}))
        return total, y

    def theta_rows(theta, k):
        thetas.append(bumpy(theta, k))
        return thetas[-1]

    _, closed = _stream(monkeypatch, theta_rows)
    monkeypatch.setattr(detection, "_moments", recording)
    monkeypatch.setattr(detection, "_check_probability", float)
    scan = hom_scan(jsa_short, chip, delays, "insensitive")
    assert len(closed) > 2 * len(EXPONENTS)
    thetas = iter(thetas)
    direct, size = np.zeros(len(delays)), 0.0
    for total, ys in moments:
        direct += total
        for y in ys.values():
            theta = next(thetas)
            direct += [2.0 * np.sum(y * np.exp(1j * theta * d)).real
                       for d in delays]
            size += np.abs(y).sum()
    np.testing.assert_allclose(
        scan.probabilities, direct, rtol=0.0,
        atol=(math.exp(detection.RHO_CAP) + 2.0 * 1.1 * amplitude * reach)
        * np.finfo(float).eps * size)


# fp, a half-converting pc and a bs before the scanned fp: both photons
# reach both channel-2 modes there, so all four delay terms u_kp are live
ALL_LIVE = SOURCE_ONLY + """
element fp
l1 = 5000.0
l2 = 5000.0

element pc
poling_period = 21.124408686252
length = 2540.0
kappa = 3.092118753533261e-4

element bs
theta = 0.7853981633974483
xi = 0.7853981633974483

element fp
l1 = 15000.0
l2 = 14000.0

element bs
theta = 0.5
xi = 0.6
"""


@pytest.mark.parametrize("query", ["VV", "insensitive"],
                         ids=["VV", "insensitive"])
def test_all_live_scan_matches_stretched_chip(jsa_tiny, query,
                                              monkeypatch):
    chip = parse_netlist_text(ALL_LIVE)
    prefix = chip.with_elements(chip.elements[:4])
    phases = oracles.phase_table(
        (jsa_tiny.sum_grid[:, None] + jsa_tiny.diff_grid) / 2.0)
    c = walk(element_matrices(prefix), CHANNEL1_INPUTS, phases)
    assert all(c[m][p] is not None for m in (2, 3) for p in (0, 1))
    # chunks of 10 rows, so the 64-row grid ends in a partial chunk
    monkeypatch.setattr(source, "CHUNK_POINTS", 10 * 64)
    assert_scan_matches_stretched_chip(jsa_tiny, chip, DELAY_GRIDS["tiles"],
                                       query, 1e-11)


CONVERTER = """
element pc
poling_period = 21.124408686252
length = 2540.0
kappa = {kappa!r}
"""


def _chain(lengths, scanned, pbs, bs, conversion, mixing):
    """fp, [a mixing pc,] pbs, the scanned fp (l2 = scanned), pc, fp, bs."""
    quarter = np.pi / (2.0 * 2540.0)
    fp = "\nelement fp\nl1 = {!r}\nl2 = {!r}\n"
    return (SOURCE_ONLY + fp.format(*lengths[:2])
            + (CONVERTER.format(kappa=conversion[0] * quarter) if mixing
               else "")
            + "\nelement pbs\nalpha = {!r}\nbeta = {!r}\n".format(*pbs)
            + fp.format(lengths[2], scanned)
            + CONVERTER.format(kappa=conversion[1] * quarter)
            + fp.format(*lengths[3:])
            + "\nelement bs\ntheta = {!r}\nxi = {!r}\n".format(*bs))


# the arguments of _chain
CHAINS = dict(
    lengths=st.lists(st.floats(0.0, 2000.0), min_size=5, max_size=5),
    scanned=st.floats(400.0, 1000.0),
    pbs=st.tuples(st.floats(0.0, np.pi / 2), st.floats(0.0, np.pi / 2)),
    bs=st.tuples(st.floats(0.0, np.pi / 4), st.floats(0.0, np.pi / 4)),
    conversion=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    mixing=st.booleans())
CHAIN_DELAYS = np.linspace(-400.0, 400.0, 37)  # the scanned l2 is >= 400 um


@settings(max_examples=12)
@given(**CHAINS)
def test_random_chain_scan_matches_stretched_chip(jsa_tiny, lengths,
                                                  scanned, pbs, bs,
                                                  conversion, mixing):
    """On random chains, with and without polarisation mixing before the
    scanned fp (so that a photon reaches both 2H and 2V there and brackets
    carry a phasor at b and at c), every scan point equals coincidence()
    on the stretched chip. The stretched fp stays below 1400 um, so its
    rounding of k (l2 + delta) moves a probability by well under 1e-12."""
    chip = parse_netlist_text(
        _chain(lengths, scanned, pbs, bs, conversion, mixing))
    for query in ("VV", "insensitive"):
        assert_scan_matches_stretched_chip(jsa_tiny, chip, CHAIN_DELAYS,
                                           query, 1e-12)


@settings(max_examples=12)
@given(**CHAINS)
def test_probability_budget_on_random_chains(jsa_tiny, lengths,
                                             scanned, pbs, bs, conversion,
                                             mixing):
    """A unitary chip loses no pair: P_insensitive + (S_11 + S_22)/2 = 1,
    with S_nn the exchange sum over the ordered pairs (b, c) of modes that
    both lie in channel n. Summed over every ordered pair of modes, the
    exchange sum is twice the norm of the two-photon state. S_nn comes
    from the fields of the row walk, as P does."""
    chip = parse_netlist_text(
        _chain(lengths, scanned, pbs, bs, conversion, mixing))
    chain = element_matrices(chip)
    same = [(b, c) for modes in ((0, 1), (2, 3)) for b in modes
            for c in modes]

    def fields_of(phases):
        return [[{} if e is None else {(0, 0): e} for e in entries]
                for entries in walk(chain, CHANNEL1_INPUTS, phases)]

    s = 0.0
    for rows, fields, _ in detection._chip_on_rows(jsa_tiny, chip,
                                                   fields_of):
        s += detection._moments(detection._weighted_amplitude(jsa_tiny, rows),
                                fields, same)[0]
    p = coincidence(jsa_tiny, chip, "insensitive")
    assert p + s / 2.0 == pytest.approx(1.0, abs=1e-12)


# a pbs at alpha = 0, beta = pi/2 crosses both polarisations
CROSSING = "\nelement pbs\nalpha = 0.0\nbeta = {!r}\n".format(np.pi / 2)


@settings(max_examples=12)
@given(**CHAINS)
def test_channel_swap_exchange_symmetry_on_random_chains(
        jsa_tiny, lengths, scanned, pbs, bs, conversion, mixing):
    """A last element that swaps the channels swaps which detector sees
    which polarisation: the scan of (pol_b, pol_c) on the crossed chip is
    the scan of (pol_c, pol_b) on the chip, and the insensitive scan
    stays the same."""
    text = _chain(lengths, scanned, pbs, bs, conversion, mixing)
    chip = parse_netlist_text(text)
    crossed = parse_netlist_text(text + CROSSING)
    queries = [(b + c,
                c + b)
               for b in "HV" for c in "HV"] + [("insensitive", "insensitive")]
    for query, swapped in queries:
        np.testing.assert_allclose(
            hom_scan(jsa_tiny, crossed, CHAIN_DELAYS, query).probabilities,
            hom_scan(jsa_tiny, chip, CHAIN_DELAYS, swapped).probabilities,
            rtol=0.0, atol=1e-13)


@settings(max_examples=12)
@given(**CHAINS, common=st.floats(0.0, 2000.0))
def test_common_mode_length_after_converter_keeps_scan_on_random_chains(
        jsa_tiny, lengths, scanned, pbs, bs, conversion, mixing, common):
    """The same length added to both straights of the fp after the
    converter, where only a polarisation-keeping bs follows, multiplies
    every detected mode by a phase of its own, the same in both exchange
    terms, so no scan probability moves. The first fp is not such a
    place: a pbs follows it.

    Each straight rounds its phase k (l + common) on its own, to about
    eps k l with k < 10 rad/um, and the bs mixes the two straights; over
    300 chains the change moved probabilities by at most 0.14 eps k l
    with k = 9.5 rad/um (6.9e-13 at l = 2500 um), so the bound adds
    eps k l to 1e-13."""
    chip = parse_netlist_text(
        _chain(lengths, scanned, pbs, bs, conversion, mixing))
    idx = len(chip.elements) - 2  # the fp between the converter and the bs
    fp = chip.elements[idx]
    longest = max(fp.params["l1"], fp.params["l2"]) + common
    elements = list(chip.elements)
    elements[idx] = dataclasses.replace(fp, params={
        "l1": fp.params["l1"] + common, "l2": fp.params["l2"] + common})
    longer = chip.with_elements(elements)
    for query in ("VV", "insensitive"):
        np.testing.assert_allclose(
            hom_scan(jsa_tiny, longer, CHAIN_DELAYS, query).probabilities,
            hom_scan(jsa_tiny, chip, CHAIN_DELAYS, query).probabilities,
            rtol=0.0, atol=1e-13 + np.finfo(float).eps * 10.0 * longest)


def test_scan_without_live_pairing_is_exactly_zero(chip, jsa_tiny):
    # a pbs fully off keeps the H-born photon out of both V detectors, so
    # the VV pairing has no live term and no moment at all
    scan = hom_scan(jsa_tiny, apply_imperfection(chip, "pbs", 1.0),
                    DELAY_GRIDS["tiles"])
    assert np.all(scan.probabilities == 0.0)


def test_scan_rejects_negative_length(chip, jsa_small, monkeypatch):
    # the bundled chip's scanned fp has l2 = 15000 um
    def no_grid_work(*args, **kwargs):
        raise AssertionError("grid work before the length check")

    monkeypatch.setattr(detection, "PhaseTable", no_grid_work)
    monkeypatch.setattr(detection, "build_jsa", no_grid_work)
    delays = [-20000.0, -19000.0, -18000.0]
    with pytest.raises(RangeError, match="must be >= 0"):
        hom_scan(jsa_small, chip, delays)
    with pytest.raises(RangeError):
        temperature_scan(chip, [24.5], delay_values=delays)
    with pytest.raises(RangeError):
        imperfection_sweep(jsa_small, chip, "pc", [0.5], delay_values=delays)


def test_temperature_scan_checks_every_window_first(chip, monkeypatch):
    # a 5 um converter's conversion window leaves the validity range
    def no_grid_work(*args, **kwargs):
        raise AssertionError("grid work before the window check")

    monkeypatch.setattr(detection, "build_jsa", no_grid_work)
    with pytest.raises(RangeError, match="converter length 5.0 um"):
        temperature_scan(chip.with_params("pc", length=5.0),
                         [24.0, 25.0, 26.0],
                         delay_values=DELAYS[:3])


def test_sweep_checks_every_fraction_first(chip, jsa_tiny, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("scan before the fraction check")

    monkeypatch.setattr(detection, "hom_scan", no_scan)
    with pytest.raises(ValidationError, match="fraction 2.0 outside"):
        imperfection_sweep(jsa_tiny, chip, "pc", [0.0, 0.5, 2.0],
                           delay_values=DELAYS)


def test_sweep_needs_a_fraction(chip, jsa_tiny):
    # an empty sweep returned []; the CLI refuses an empty list already
    with pytest.raises(ValidationError,
                       match="fractions must be a 1-D array of 1 or more"):
        imperfection_sweep(jsa_tiny, chip, "pc", [], delay_values=DELAYS)


def test_scan_needs_stretchable_element(jsa_small):
    text = SOURCE_ONLY + "\nelement bs\ntheta = 0.785\nxi = 0.785\n"
    spec = parse_netlist_text(text)
    with pytest.raises(ValidationError):
        hom_scan(jsa_small, spec, DELAYS)


@pytest.mark.parametrize("delays", [
    [], 1000.0, [[0.0, 500.0, 1000.0]], [0.0, 1000.0],
    [0.0, np.nan, 1000.0], [0.0, np.inf, 1000.0], [0.0, 1000.0, 500.0],
    [0.0, 500.0, 500.0],
], ids=["empty", "scalar", "2-D", "two-points", "nan", "inf", "unsorted",
        "repeated"])
def test_scan_rejects_bad_delays(chip, jsa_small, monkeypatch, delays):
    def no_grid_work(*args, **kwargs):
        raise AssertionError("grid work before delay validation")

    monkeypatch.setattr(detection, "PhaseTable", no_grid_work)
    with pytest.raises(ValidationError):
        hom_scan(jsa_small, chip, delays)


@pytest.mark.parametrize("query", ["XX", "vv", None])
@pytest.mark.parametrize("scan", ["coincidence", "hom_scan",
                                  "imperfection_sweep", "temperature_scan"])
def test_scans_reject_bad_query(chip, jsa_small, monkeypatch, scan, query):
    def no_grid_work(*args, **kwargs):
        raise AssertionError("grid work before query validation")

    monkeypatch.setattr(detection, "PhaseTable", no_grid_work)
    monkeypatch.setattr(detection, "build_jsa", no_grid_work)
    calls = {
        "coincidence": lambda: coincidence(jsa_small, chip, query),
        "hom_scan": lambda: hom_scan(jsa_small, chip, DELAYS, query),
        "imperfection_sweep": lambda: imperfection_sweep(
            jsa_small, chip, "pc", [0.0], DELAYS, query),
        "temperature_scan": lambda: temperature_scan(chip, [24.5], DELAYS,
                                                     query),
    }
    with pytest.raises(ValidationError, match=re.escape(
            f"query {query!r} not one of {QUERIES}")):
        calls[scan]()


FIT = qpic.CouplerFit(beat_te=900.0, offset_te=450.0, beat_tm=850.0,
                      offset_tm=530.0)

# One row per public call that takes a number: the call with x in one of
# its numeric arguments, and what a NaN or an infinite x raises there.
# None marks a unit conversion of arrays, through which NaN passes as a
# value. A NaN or inf y of peak_fwhm is a NumericalError by design: its
# curves are computed, so a NaN there is a numerical failure (exit 3).
NUMBER_ARGS = {
    "pbs_matrix": (lambda c, j, x: qpic.pbs_matrix(x, 1.0), RangeError),
    "bs_matrix": (lambda c, j, x: qpic.bs_matrix(0.7, x), RangeError),
    "pm_matrix": (lambda c, j, x: qpic.pm_matrix(x, 0.0), RangeError),
    "pc_matrix": (lambda c, j, x: qpic.pc_matrix(21.4, 7620.0, x),
                  RangeError),
    "fp_matrix": (lambda c, j, x: qpic.fp_matrix(x, 1.0), RangeError),
    "eo_bs_matrix": (lambda c, j, x: qpic.eo_bs_matrix(1e-4, 4000.0, x, 0.0),
                     RangeError),
    "pm_phases": (lambda c, j, x: qpic.pm_phases(x), RangeError),
    "pc_kappa": (lambda c, j, x: qpic.pc_kappa(x), RangeError),
    "eo_bs_dbeta": (lambda c, j, x: qpic.eo_bs_dbeta(x), RangeError),
    "mode_index": (lambda c, j, x: qpic.mode_index(x, "H"), ValidationError),
    "ElementDecl": (lambda c, j, x: qpic.ElementDecl(
        "fp", {"l1": x, "l2": 1.0}), RangeError),
    "CircuitSpec": (lambda c, j, x: dataclasses.replace(c, temperature=x),
                    RangeError),
    "CircuitSpec.at_temperature": (lambda c, j, x: c.at_temperature(x),
                                   RangeError),
    "CircuitSpec.with_params": (lambda c, j, x: c.with_params("fp", l1=x),
                                RangeError),
    "compose_sections": (lambda c, j, x: qpic.compose_sections(
        x, [0.0], 10.0), RangeError),
    "conversion_fraction": (lambda c, j, x: qpic.conversion_fraction(
        c.model, 21.4, x, 1e-4, 1.55), RangeError),
    "pc_window": (lambda c, j, x: qpic.pc_window(
        c.model, 21.4, 7620.0, x), RangeError),
    "peak_fwhm": (lambda c, j, x: qpic.peak_fwhm(
        [0.0, 1.0, 2.0], [0.0, x, 0.0]), qpic.NumericalError),
    "peak_fwhm.x": (lambda c, j, x: qpic.peak_fwhm(
        [x, 1.0, 2.0], [0.0, 1.0, 0.0]), RangeError),
    "switch_map": (lambda c, j, x: qpic.switch_map(
        1e-4, 4000.0, [x], [0.0]), RangeError),
    "CouplerFit": (lambda c, j, x: qpic.CouplerFit(x, 0.0, 1.0, 0.0),
                   RangeError),
    "splitting_ratio": (lambda c, j, x: qpic.splitting_ratio(FIT, x, "H"),
                        RangeError),
    # fit tables are data, checked as a whole
    "fit_coupler": (lambda c, j, x: qpic.fit_coupler(
        [x, 1.0, 2.0], [0.1, 0.5, 0.9], [0.0, 1.0, 2.0], [0.1, 0.5, 0.9]),
        ValidationError),
    "pbs_angles": (lambda c, j, x: qpic.pbs_angles(FIT, x), RangeError),
    "omega_from_wavelength": (lambda c, j, x: qpic.omega_from_wavelength(x),
                              None),
    "wavelength_from_omega": (lambda c, j, x: qpic.wavelength_from_omega(x),
                              None),
    "index": (lambda c, j, x: qpic.index(c.model, "H", 1.55, x), RangeError),
    "wavevector": (lambda c, j, x: qpic.wavevector(c.model, "H", x),
                   RangeError),
    "group_velocity": (lambda c, j, x: qpic.group_velocity(c.model, "H", x),
                       RangeError),
    "pdc_mismatch": (lambda c, j, x: qpic.pdc_mismatch(
        c.model, 9.2, x, 1.2), RangeError),
    "pc_mismatch": (lambda c, j, x: qpic.pc_mismatch(c.model, 21.4, x),
                    RangeError),
    "degenerate_wavelength": (lambda c, j, x: qpic.degenerate_wavelength(
        c.model, x, 24.5), RangeError),
    "pc_matched_wavelength": (lambda c, j, x: qpic.pc_matched_wavelength(
        c.model, 21.4, x), RangeError),
    "tuning_curve": (lambda c, j, x: qpic.tuning_curve(
        c.model, 9.2, 24.5, [x]), RangeError),
    "MaterialModel": (lambda c, j, x: qpic.MaterialModel(
        c.model.ordinary, c.model.extraordinary, x), RangeError),
    "SellmeierSet": (lambda c, j, x: qpic.SellmeierSet(
        c.model.ordinary.form, (x, *c.model.ordinary.a[1:]),
        c.model.ordinary.b), RangeError),
    "SourceSpec": (lambda c, j, x: qpic.SourceSpec(0.775, x, 9.2, 20700.0),
                   RangeError),
    "GridSpec": (lambda c, j, x: qpic.GridSpec(x, 32), ValidationError),
    "build_jsa": (lambda c, j, x: qpic.build_jsa(c.model, c.source,
                                                 temperature=x), RangeError),
    "default_delay_values": (lambda c, j, x: default_delay_values(x),
                             ValidationError),
    "hom_scan": (lambda c, j, x: hom_scan(j, c, [x, 1.0, 2.0]), RangeError),
    "apply_imperfection": (lambda c, j, x: apply_imperfection(c, "pc", x),
                           RangeError),
    "imperfection_sweep": (lambda c, j, x: imperfection_sweep(
        j, c, "pc", [x], DELAYS), RangeError),
    "temperature_scan": (lambda c, j, x: temperature_scan(c, [x], DELAYS),
                         RangeError),
    "scan_grid": (lambda c, j, x: qpic.scan_grid(c, [x, 1.0, 2.0]),
                  RangeError),
    "scan_grid.size_diff": (lambda c, j, x: qpic.scan_grid(c, DELAYS, x),
                            ValidationError),
}

# the public callables that take no number: files, text and records whose
# numbers were read where they were made (exceptions aside)
NO_NUMBER = {
    "default_material", "load_coupler_fit", "load_material", "parse_netlist",
    "parse_netlist_text", "save_coupler_fit",
    "coincidence", "element_matrices", "jsa_exchange_asymmetry",
    "marginal_spectra", "ConversionWindow", "ElementMatrix",
    "JointSpectralAmplitude",
    "MarginalSpectra", "ScanResult", "SpectralDensity", "SweepPoint",
    "TemperaturePoint", "TuningCurve",
}

# calls that raised a bare ZeroDivisionError, ValueError or TypeError, a
# misleading window RangeError, or returned a (1, 1, 1) switch map; then
# each NUMBER_ARGS row given a str, and a NaN and an inf where it raises
BAD_CALLS = {
    "pc-length-0": (lambda c, j: qpic.pc_window(c.model, 21.4, 0.0, 0.1),
                    RangeError),
    "pc-length-negative":
        (lambda c, j: qpic.pc_window(c.model, 21.4, -5.0, 0.1), RangeError),
    "pc-length-nan": (lambda c, j: qpic.pc_window(c.model, 21.4, np.nan,
                                                  0.1), RangeError),
    "pc-length-inf": (lambda c, j: qpic.pc_window(c.model, 21.4, np.inf,
                                                  0.1), RangeError),
    # the window's length * slope underflowed: a ZeroDivisionError
    "pc-length-subnormal": (lambda c, j: qpic.pc_window(c.model, 21.4, 5e-324,
                                                        0.1), RangeError),
    "pc-points-negative": (lambda c, j: qpic.pc_window(
        c.model, 21.4, 7620.0, 0.1, n_points=-1), ValidationError),
    "delays-not-numbers": (lambda c, j: hom_scan(j, c, ["a", "b", "c"]),
                           ValidationError),
    "temperatures-not-numbers":
        (lambda c, j: temperature_scan(c, ["a"], DELAYS), ValidationError),
    "fractions-2-D": (lambda c, j: imperfection_sweep(
        j, c, "pc", [[0.1, 0.2]], DELAYS), ValidationError),
    "fractions-not-numbers":
        (lambda c, j: imperfection_sweep(j, c, "pc", ["a"], DELAYS),
         ValidationError),
    "delay-points-negative": (lambda c, j: default_delay_values(-1),
                              ValidationError),
    "switch-map-2-D": (lambda c, j: qpic.switch_map(1e-4, 4000.0, [[0.0]],
                                                    [0.0]), ValidationError),
    "pbs-angles-array": (lambda c, j: qpic.pbs_angles(FIT, [500.0, 600.0]),
                         ValidationError),
    # a negative coupler length gave ratios and angles
    "splitting-ratio-length-negative":
        (lambda c, j: qpic.splitting_ratio(FIT, -1.0, "H"), RangeError),
    "splitting-ratio-lengths-negative":
        (lambda c, j: qpic.splitting_ratio(FIT, [500.0, -1.0], "V"),
         RangeError),
    "pbs-angles-length-negative": (lambda c, j: qpic.pbs_angles(FIT, -1.0),
                                   RangeError),
    "scan-grid-no-source": (lambda c, j: qpic.scan_grid(
        dataclasses.replace(c, source=None), DELAYS), ValidationError),
    # grids above MAX_GRID_POINTS, refused before any array exists
    "grid-over-ceiling": (lambda c, j: qpic.GridSpec(1 << 12, 1 << 12 | 1),
                          RangeError),
    # dict(rule) in build_jsa raised a bare ValueError
    "grid-rule-not-mapping": (lambda c, j: qpic.GridSpec(16, 16, rule="x"),
                              ValidationError),
    "scan-grid-over-ceiling": (lambda c, j: qpic.scan_grid(
        dataclasses.replace(c, source=dataclasses.replace(
            c.source, pulse_duration=1.0)), [0.0, 5e6, 1e7]), RangeError),
    # counts whose arrays numpy refused with a bare MemoryError
    "delay-points-over-ceiling": (lambda c, j: default_delay_values(10 ** 13),
                                  RangeError),
    "pc-points-over-ceiling": (lambda c, j: qpic.pc_window(
        c.model, 21.4, 7620.0, 0.1, n_points=10 ** 13), RangeError),
    "switch-map-over-ceiling": (lambda c, j: qpic.switch_map(
        1e-4, 4000.0, np.zeros(10 ** 6), np.zeros(10 ** 6)), RangeError),
}
for _name, (_call, _error) in NUMBER_ARGS.items():
    for _x, _raised in (("a", ValidationError), (math.nan, _error),
                        (math.inf, _error)):
        if _raised is not None:
            BAD_CALLS[f"{_name}-{_x}"] = (
                lambda c, j, call=_call, x=_x: call(c, j, x), _raised)


@pytest.mark.parametrize("call, error", list(BAD_CALLS.values()),
                         ids=list(BAD_CALLS))
def test_entry_points_reject_bad_input(chip, jsa_small, call, error):
    # the exact class: a qpic error, never a bare TypeError or ValueError
    with pytest.raises(qpic.QpicError) as info:
        call(chip, jsa_small)
    assert type(info.value) is error


def test_count_holds_the_ceiling():
    # the largest array passes and one point more is refused, whether the
    # count sizes it alone or times the points of its other axes
    count, ceiling = qpic.errors.count, qpic.errors.MAX_GRID_POINTS
    assert count(ceiling, "n", 3) == ceiling
    assert count(np.int64(1 << 12), "n", 3, 1 << 12) == 1 << 12
    for n, per in [(ceiling + 1, 1), (1 << 12, (1 << 12) + 1),
                   (np.int64(1 << 62), 4)]:  # no int64 wrap-around
        with pytest.raises(RangeError, match="^" + re.escape(
                f"n {n:.6g}: more than {ceiling} points") + "$"):
            count(n, "n", 3, per)


def test_every_public_call_has_a_row():
    # a new public call that takes a number needs a NUMBER_ARGS row
    public = {name for name in qpic.__all__
              if callable(obj := getattr(qpic, name))
              and not (isinstance(obj, type) and issubclass(obj, Exception))}
    assert NO_NUMBER <= public
    assert {key.split(".")[0] for key in NUMBER_ARGS} == public - NO_NUMBER


def test_dip_vertex_on_uneven_steps():
    # an exact parabola sampled unevenly: the vertex is recovered exactly
    values = np.array([-4.0, -1.0, 0.0, 3.0, 4.0, 9.0, 10.0])
    p = 0.1 + 0.01 * (values - 3.7) ** 2
    scan = detection._analyse_scan(values, p)
    assert scan.dip_position == pytest.approx(3.7, abs=1e-12)


def _loop_dip_fwhm(values, p):
    # reference: walk outward from the minimum until the half level
    n, i_min = len(p), int(np.argmin(p))
    k = max(1, int(round(0.05 * n)))
    baseline = float(np.mean(np.concatenate([p[:k], p[-k:]])))
    level = 0.5 * (baseline + float(p[i_min]))
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
    return None if left is None or right is None else float(right - left)


def test_dip_fwhm_matches_loop_reference(rng):
    widths = set()
    for _ in range(300):
        n = int(rng.integers(3, 40))
        values = np.cumsum(rng.uniform(0.1, 2.0, n))
        centre = rng.uniform(values[0] - 5.0, values[-1] + 5.0)
        p = 0.5 - 0.4 * np.exp(-((values - centre) / rng.uniform(0.5, 20.0))
                               ** 2) + rng.normal(0.0, 0.02, n)
        expected = _loop_dip_fwhm(values, p)
        scan = detection._analyse_scan(values, p)
        assert scan.dip_fwhm == expected
        widths.add(expected is None)
    assert widths == {True, False}  # closed and open flanks both occur
    flat = detection._analyse_scan(np.arange(5.0), np.full(5, 0.25))
    assert flat.dip_fwhm is None


def test_default_delay_values():
    d = default_delay_values()
    assert len(d) == 105
    assert d[0] == -1500.0 and d[-1] == 3700.0


def test_apply_imperfection_identity(chip):
    same = apply_imperfection(chip, "bs", 0.0)
    for a, b in zip(same.elements, chip.elements):
        assert a.kind == b.kind
        assert a.params == b.params


def test_apply_imperfection_maps(chip):
    gone = apply_imperfection(chip, "bs", 1.0)
    bs = [e for e in gone.elements if e.kind == "bs"][0]
    assert bs.params["theta"] == pytest.approx(0.0)
    assert bs.params["xi"] == pytest.approx(0.0)

    gone = apply_imperfection(chip, "pbs", 1.0)
    pbs = [e for e in gone.elements if e.kind == "pbs"][0]
    assert pbs.params["alpha"] == pytest.approx(0.0)
    assert pbs.params["beta"] == pytest.approx(0.0)

    half = apply_imperfection(chip, "pbs-one-pol", 0.5)
    pbs = [e for e in half.elements if e.kind == "pbs"][0]
    assert pbs.params["alpha"] == pytest.approx(np.pi / 4)
    assert pbs.params["beta"] == pytest.approx(np.pi / 2)

    gone = apply_imperfection(chip, "pc", 1.0)
    pc = [e for e in gone.elements if e.kind == "pc"][0]
    assert pc.params["kappa"] == pytest.approx(0.0)


def test_apply_imperfection_validates(chip):
    with pytest.raises(ValidationError):
        apply_imperfection(chip, "mirror", 0.5)
    with pytest.raises(ValidationError):
        apply_imperfection(chip, "bs", 1.5)
    assert set(IMPERFECTION_TARGETS) == {"bs", "pbs", "pbs-one-pol", "pc"}


def test_imperfection_sweep_endpoints(chip, jsa_small, scan_vv):
    points = imperfection_sweep(jsa_small, chip, "pc", [0.0, 1.0],
                                delay_values=DELAYS)
    assert [p.fraction for p in points] == [0.0, 1.0]
    assert points[0].scan.minimum == pytest.approx(scan_vv.minimum,
                                                   abs=1e-12)
    # fully broken converter: the V,V rate vanishes
    assert points[1].scan.maximum < 1e-12
    assert points[0].scan.visibility > points[1].scan.visibility


def test_temperature_scan_smoke(chip):
    points = temperature_scan(chip, [24.5, 29.5],
                              delay_values=np.linspace(-500.0, 2700.0, 17),
                              grid=qpic.GridSpec(96, 96))
    assert [p.temperature for p in points] == [24.5, 29.5]
    on, off = points
    assert on.scan.visibility > off.scan.visibility
    assert not on.outside_window
    assert on.signal_peak == pytest.approx(1.55, abs=2e-3)
    assert on.window_centre == pytest.approx(1.55, abs=2e-3)
    # heating walks the marginals away from the converter window centre
    assert abs(off.signal_peak - off.window_centre) > abs(
        on.signal_peak - on.window_centre)


def test_hom_scan_evaluates_indices_once_per_grid(chip, monkeypatch):
    # n_H and n_V are shared by every element and by the delay exponents:
    # the 64x64 grid is one chunk, walked once, so each index is evaluated
    # once on the grid
    jsa = qpic.build_jsa(chip.model, chip.source,
                         qpic.GridSpec(64, 64))
    original = qpic.dispersion.index
    calls = []

    def counting(model, pol, wavelength, temperature=None):
        calls.append((pol, np.size(wavelength)))
        return original(model, pol, wavelength, temperature)

    for name, module in list(sys.modules.items()):
        if (name == "qpic" or name.startswith("qpic.")) \
                and getattr(module, "index", None) is original:
            monkeypatch.setattr(module, "index", counting)
    hom_scan(jsa, chip, DELAYS[:5])
    assert sorted(calls) == [("H", 64 * 64), ("V", 64 * 64)]


def test_hom_scan_builds_its_chains_once(chip, jsa_tiny, monkeypatch):
    # a scan over many chunks builds its element chain once, slices it
    # into its two walks, and walks each chunk once: one index call per
    # polarisation and chunk, on the chunk's 10 rows (4 in the last), and
    # none for the blocks
    monkeypatch.setattr(source, "CHUNK_POINTS", 10 * 64)
    originals = {"element_matrices": qpic.circuit.element_matrices,
                 "index": qpic.dispersion.index}
    calls = {name: [] for name in originals}

    def counting(name):
        def call(*args, **kwargs):
            calls[name].append(args)
            return originals[name](*args, **kwargs)
        return call

    for module_name, module in list(sys.modules.items()):
        if module_name == "qpic" or module_name.startswith("qpic."):
            for name, original in originals.items():
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting(name))
    hom_scan(jsa_tiny, chip, DELAYS[:5], "insensitive")
    assert len(calls["element_matrices"]) == 1
    for pol in "HV":
        sizes = [np.size(args[2]) for args in calls["index"] if args[1] == pol]
        assert sizes == [10 * 64] * 6 + [4 * 64]
    assert len(calls["index"]) == 14


def test_hom_scan_warns_once_per_scan(chip, jsa_tiny, monkeypatch):
    # the angle warning comes once, when the pbs is declared; no scan of
    # the chip repeats it
    monkeypatch.setattr(source, "CHUNK_POINTS", 10 * 64)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        leaky = chip.with_params("pbs", alpha=2.0)
    assert [str(w.message).split(";")[0] for w in caught] == [
        "pbs angles outside [0, pi/2]"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        hom_scan(jsa_tiny, leaky, DELAYS[:5])
    assert caught == []


def test_scans_build_no_element(chip, jsa_tiny, monkeypatch):
    # each declaration is built once: a scan reuses its matrix, and a
    # sweep declares one element per fraction
    calls = []

    def counting(factory):
        @functools.wraps(factory)  # the netlist keys are its parameters
        def call(*args, **kwargs):
            calls.append(factory.__name__)
            return factory(*args, **kwargs)
        return call

    for kind, factory in list(qpic.circuit.ELEMENT_FACTORIES.items()):
        monkeypatch.setitem(qpic.circuit.ELEMENT_FACTORIES, kind,
                            counting(factory))
    hom_scan(jsa_tiny, chip, DELAYS[:5])
    temperature_scan(chip, [24.0, 25.0], DELAYS[:3],
                     grid=qpic.GridSpec(64, 64))
    assert calls == []
    imperfection_sweep(jsa_tiny, chip, "pbs", [0.0, 0.25, 0.5], DELAYS[:3])
    assert calls == ["pbs_matrix"] * 3


def _cores(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _assert_same(a, b):
    """Equal records, every array bit for bit."""
    assert type(a) is type(b)
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if dataclasses.is_dataclass(x):
            _assert_same(x, y)
        elif isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), f.name
        else:
            assert x == y, f.name


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


TEMPERATURES = [23.0, 24.0, 25.0, 26.0]
GRID = qpic.GridSpec(32, 32)


@pytest.mark.parametrize("n_workers", [1, 2, 3])
def test_forked_map_runs_the_jobs_in_order(monkeypatch, n_workers):
    _cores(monkeypatch, n_workers)
    results = workers.forked_map(lambda job: (job, os.getpid()),
                                 list(range(5)))
    assert [job for job, _ in results] == list(range(5))
    # job i runs in share i % n_workers, share 0 in the caller
    pids = [pid for _, pid in results]
    assert pids[0] == os.getpid()
    assert len(set(pids)) == n_workers
    assert all(pids[i] == pids[i % n_workers] for i in range(5))
    _assert_no_child_left()


@pytest.mark.parametrize("n_workers", [2, 3])
def test_forked_scans_match_the_serial_loop(chip, jsa_tiny, monkeypatch,
                                            n_workers):
    def scans():
        return (temperature_scan(chip, TEMPERATURES, DELAYS[:5],
                                 "insensitive", GRID),
                imperfection_sweep(jsa_tiny, chip, "pbs",
                                   [0.0, 0.25, 0.5, 0.75, 1.0], DELAYS[:5]))

    _cores(monkeypatch, 1)
    serial = scans()
    _cores(monkeypatch, n_workers)
    forked = scans()
    _assert_no_child_left()
    for a, b in zip(serial, forked):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same(x, y)


def _patched_build(monkeypatch, before):
    """detection.build_jsa that first calls before(temperature)."""
    build = qpic.source.build_jsa

    def patched(*args, temperature, **kwargs):
        before(temperature)
        return build(*args, temperature=temperature, **kwargs)

    monkeypatch.setattr(detection, "build_jsa", patched)


@pytest.mark.parametrize("n_workers", [1, 2, 3])
def test_forked_scan_raises_the_first_jobs_error(chip, monkeypatch,
                                                 n_workers):
    # at 3 workers the caller's share (23, 26) fails too, after the child
    # whose share is 24 failed: the earlier job's error wins
    def fail(t):
        if t in (24.0, 26.0):
            raise RangeError(f"no source at {t} C")

    _cores(monkeypatch, n_workers)
    _patched_build(monkeypatch, fail)
    with pytest.raises(RangeError, match=r"^no source at 24.0 C$") as info:
        temperature_scan(chip, TEMPERATURES, DELAYS[:3], grid=GRID)
    assert type(info.value) is RangeError
    _assert_no_child_left()


@pytest.mark.parametrize("n_workers", [1, 2, 3])
def test_forked_scan_replays_warnings_in_job_order(chip, monkeypatch,
                                                   n_workers):
    _cores(monkeypatch, n_workers)
    _patched_build(monkeypatch, lambda t: t == 25.0 and warnings.warn(
        "ridge moved", UserWarning))
    with pytest.warns(UserWarning, match="ridge moved") as record:
        temperature_scan(chip, TEMPERATURES, DELAYS[:3], grid=GRID)
    assert [str(w.message) for w in record] == ["ridge moved"]

    _patched_build(monkeypatch, lambda t: warnings.warn(f"built at {t}"))
    with pytest.warns(UserWarning) as record:
        temperature_scan(chip, TEMPERATURES, DELAYS[:3], grid=GRID)
    assert [str(w.message) for w in record] == [
        f"built at {t}" for t in TEMPERATURES]
    _assert_no_child_left()


@pytest.mark.parametrize("n_workers", [1, 2, 3])
def test_forked_scan_keeps_the_callers_filters(chip, monkeypatch, n_workers):
    _cores(monkeypatch, n_workers)
    _patched_build(monkeypatch, lambda t: warnings.warn("same place"))
    # "default" shows a warning once per place, across jobs as in the
    # serial loop: each replay uses the registry of the raising module
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        temperature_scan(chip, TEMPERATURES, DELAYS[:3], grid=GRID)
    assert [str(w.message) for w in caught] == ["same place"]
    # "error" raises the warning, from whichever process met it
    _patched_build(monkeypatch, lambda t: t == 24.0 and warnings.warn(
        "overflow", RuntimeWarning))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="overflow"):
            temperature_scan(chip, TEMPERATURES, DELAYS[:3], grid=GRID)
    _assert_no_child_left()


def test_forked_scan_raises_for_a_dead_child(chip, monkeypatch):
    caller = os.getpid()

    def die(t):
        if os.getpid() != caller:
            os._exit(1)

    _cores(monkeypatch, 2)
    _patched_build(monkeypatch, die)
    with pytest.raises(qpic.NumericalError,
                       match=r"worker process \d+ ended without its results"):
        temperature_scan(chip, TEMPERATURES, DELAYS[:3], grid=GRID)
    _assert_no_child_left()


def test_one_core_forks_nothing(chip, jsa_tiny, monkeypatch):
    # one worker is the caller alone: its jobs run in order in this
    # process, a job's warning is replayed once and the first error raised
    def no_fork():
        raise AssertionError("forked with one core")

    _cores(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", no_fork)
    for t, point in zip(TEMPERATURES, temperature_scan(
            chip, TEMPERATURES, DELAYS[:5], "insensitive", GRID)):
        jsa = qpic.build_jsa(chip.model, chip.source, GRID, temperature=t)
        _assert_same(point.scan, hom_scan(jsa, chip.at_temperature(t),
                                          DELAYS[:5], "insensitive"))
    fractions = [0.0, 0.5, 1.0]
    for f, point in zip(fractions, imperfection_sweep(
            jsa_tiny, chip, "pbs", fractions, DELAYS[:5])):
        _assert_same(point.scan, hom_scan(
            jsa_tiny, apply_imperfection(chip, "pbs", f), DELAYS[:5]))

    def fail(t):
        if t == 24.0:
            warnings.warn("ridge moved", UserWarning)
        if t >= 25.0:
            raise RangeError(f"no source at {t} C")

    _patched_build(monkeypatch, fail)
    with pytest.warns(UserWarning, match="ridge moved") as record, \
            pytest.raises(RangeError, match=r"^no source at 25.0 C$"):
        temperature_scan(chip, TEMPERATURES, DELAYS[:3], grid=GRID)
    assert [str(w.message) for w in record] == ["ridge moved"]

    scanned = []
    scan = detection.hom_scan

    def patched(*args):
        scanned.append(len(scanned))
        if len(scanned) == 1:
            warnings.warn("first fraction", UserWarning)
        if len(scanned) == 2:
            raise RangeError("second fraction")
        return scan(*args)

    monkeypatch.setattr(detection, "hom_scan", patched)
    with pytest.warns(UserWarning, match="first fraction") as record, \
            pytest.raises(RangeError, match="^second fraction$"):
        imperfection_sweep(jsa_tiny, chip, "pbs", fractions, DELAYS[:5])
    assert [str(w.message) for w in record] == ["first fraction"]
    assert scanned == [0, 1]  # the serial loop stops at its first error


def test_hom_scan_keeps_no_full_grid_array(chip):
    """At the production grid the traced memory peak of a scan, and of
    coincidence(), stays below three full-grid complex arrays (12 MiB):
    the walk, the transfer terms, the moments and the phasors exist for
    one chunk at a time."""
    jsa = qpic.build_jsa(chip.model, chip.source,
                         qpic.GridSpec(512, 512))
    delays = np.linspace(-1500.0, 3700.0, 21)
    for run in (lambda q: hom_scan(jsa, chip, delays, q),
                lambda q: coincidence(jsa, chip, q)):
        for query in ("VV", "insensitive"):
            tracemalloc.start()
            try:
                run(query)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 3 * jsa.amplitude.nbytes


@pytest.mark.parametrize("query, blocks", [("VV", 26), ("insensitive", 44)],
                         ids=["VV", "insensitive"])
def test_hom_scan_working_set_is_counted_in_blocks(chip, monkeypatch, query,
                                                   blocks):
    """A scan's traced peak at the production grid is ~``blocks`` complex
    arrays of CHUNK_POINTS points (measured: 26.3 for VV, 44.5 for
    insensitive at 4096), and it follows the block size."""
    jsa = qpic.build_jsa(chip.model, chip.source,
                         qpic.GridSpec(512, 512))
    delays = np.linspace(-1500.0, 3700.0, 21)
    peaks = {}
    for chunk_points in (4096, 8192):
        monkeypatch.setattr(source, "CHUNK_POINTS", chunk_points)
        tracemalloc.start()
        try:
            hom_scan(jsa, chip, delays, query)
            peaks[chunk_points] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peaks[chunk_points] <= 1.2 * blocks * chunk_points * 16
    assert 1.6 <= peaks[8192] / peaks[4096] <= 2.2


@pytest.mark.parametrize("query, tail", [
    ("VV", [(1, 10000.0)]),
    ("insensitive", [(0, 10000.0), (1, 10000.0)]),
], ids=["VV", "insensitive"])
def test_hom_scan_evaluates_each_phase_once(chip, jsa_tiny, query, tail,
                                            monkeypatch):
    # every fp of the bundled chip has l1 == l2, and the tail reaches only
    # the polarisations of the rows the query reads
    original = PhaseTable._evaluate
    evaluated = []

    def counting(self, pol, length):
        evaluated.append((pol, length))
        return original(self, pol, length)

    monkeypatch.setattr(PhaseTable, "_evaluate", counting)
    hom_scan(jsa_tiny, chip, DELAYS[:5], query)
    assert sorted(evaluated) == sorted(
        [(pol, length) for length in (5000.0, 15000.0) for pol in (0, 1)]
        + tail)


@pytest.mark.parametrize("query, exponents", [
    ("VV", 2), ("insensitive", 6),
], ids=["VV", "insensitive"])
def test_hom_scan_builds_each_exponent_once(chip, jsa_tiny, query, exponents,
                                            monkeypatch):
    # VV reads k_V and k_V - k_V^R; the insensitive query adds k_H,
    # k_H - k_H^R, k_H + k_V^R and k_H - k_V^R. No exp runs on a grid
    # chunk: the scan evaluates exp once per delay and difference column
    # on the reference line of each block, on an even or an uneven grid.
    moments = detection._moments
    built = []

    def recording(*args):
        total, y = moments(*args)
        built.append(tuple(y))
        return total, y

    values = detection._Block.values
    blocks = []  # the scan evaluates each block once, when it closes

    def evaluating(self, delays):
        blocks.append(self)
        return values(self, delays)

    exp = np.exp
    points = []

    def counting(x, *args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == detection.__name__:
            points.append(np.shape(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(detection, "_moments", recording)
    monkeypatch.setattr(detection._Block, "values", evaluating)
    monkeypatch.setattr(np, "exp", counting)
    monkeypatch.setattr(source, "CHUNK_POINTS", 10 * 64)
    n_diff = len(jsa_tiny.diff_grid)
    for grid in ("tiles", "uneven"):
        for recorded in (built, blocks, points):
            recorded.clear()
        delays = DELAY_GRIDS[grid]
        hom_scan(jsa_tiny, chip, delays, query)
        assert len(built) == 7 and len(set(built)) == 1
        assert len(built[0]) == exponents == len(blocks)
        assert all(len(shape) == 2 and shape[0] <= 10 and shape[1] == n_diff
                   for shape in points)
        assert sum(np.prod(shape) for shape in points) == \
            len(blocks) * len(delays) * n_diff


def _scan_on(walker, monkeypatch, *args):
    """hom_scan's probabilities with ``walker`` in place of the row walk."""
    with monkeypatch.context() as m:
        m.setattr(detection, "_chip_on_rows", walker)
        return hom_scan(*args).probabilities


# the stated max |dP| of a scan on the grid of scan_grid against a
# 1024-row walk or the exact phases: the float64 walk's rounding floor
# over the grid's >= 2^15 points (measured up to 2.1e-12 at 64 x 512; on
# 64 rows it grows to 4.8e-12 at 128 difference points and 7.2e-12 at 64)
ROW_BOUND = 3e-12


@pytest.mark.parametrize("pbs_error", [0.0, 0.25], ids=["ideal", "leaky-pbs"])
def test_row_walk_is_near_extended_oracle(chip, pbs_error, monkeypatch):
    """On the grid of scan_grid at 256 difference points, the float64 row
    walk is within ROW_BOUND of the pointwise extended-precision phase
    path: the row walk rounds each k L of ~1.5e5 rad to a double (~3e-11
    rad), and the rounding averages over the grid's points."""
    chip = apply_imperfection(chip, "pbs", pbs_error)
    jsa = qpic.build_jsa(chip.model, chip.source,
                         detection.scan_grid(chip, ORACLE_DELAYS, 256))
    for query in ("VV", "insensitive"):
        args = (jsa, chip, ORACLE_DELAYS, query)
        exact = _scan_on(oracles.row_walk(oracles.ExtendedPhases),
                         monkeypatch, *args)
        rows = hom_scan(*args).probabilities
        assert np.max(np.abs(rows - exact)) <= ROW_BOUND


RULE_TAUS = (1000.0, 100.0, 10.0, 1.0, 0.5, 0.2)  # ps


def _pumped(chip, tau):
    return dataclasses.replace(chip, source=dataclasses.replace(
        chip.source, pulse_duration=tau))


@pytest.fixture(scope="module")
def rule_jsas(chip):
    """The chip at a pump of ``tau`` ps and its JSAs on the grid of
    scan_grid and on 1024 sum rows, both at 128 difference points; each
    built once."""

    @functools.cache
    def jsas(tau):
        spec = _pumped(chip, tau)
        return spec, [qpic.build_jsa(spec.model, spec.source, grid)
                      for grid in (qpic.scan_grid(spec, DELAYS, 128),
                                   qpic.GridSpec(1024, 128))]

    return jsas


@pytest.mark.parametrize("query", ["VV", "insensitive"])
@pytest.mark.parametrize("tau", RULE_TAUS)
def test_resolved_rows_within_bound_of_1024_rows(rule_jsas, tau, query):
    spec, (resolved, dense) = rule_jsas(tau)
    got = hom_scan(resolved, spec, DELAYS, query).probabilities
    want = hom_scan(dense, spec, DELAYS, query).probabilities
    assert np.max(np.abs(got - want)) <= ROW_BOUND


def test_scan_grid_rows_follow_the_pump(chip, rule_jsas):
    """The bundled chip's 1000 ps source needs few sum rows, and a shorter
    pump never fewer; at 0.2 ps, 64 rows would miss the 1024-row walk by
    far more than any rounding. The JSA records the rows and the rule's
    inputs; a grid given as is is honoured and records no rule."""
    grids = [qpic.scan_grid(_pumped(chip, tau), DELAYS) for tau in RULE_TAUS]
    rows = [g.size_sum for g in grids]
    assert rows[0] <= 128
    assert rows == sorted(rows) and rows[-1] > 64
    assert all(g.size_diff == 512 for g in grids)
    # never fewer grid points than the walk's rounding floor asks for
    assert qpic.scan_grid(chip, DELAYS, 16).size_sum == 2 ** 15 // 16
    spec, (resolved, dense) = rule_jsas(0.2)
    assert resolved.meta["sum_rows"] == resolved.amplitude.shape[0]
    assert resolved.meta["sum_rule"] == qpic.scan_grid(spec, DELAYS,
                                                       128).rule
    assert dense.meta["sum_rule"] == {}
    few = qpic.build_jsa(spec.model, spec.source, qpic.GridSpec(64, 128))
    assert few.amplitude.shape == (64, 128)
    assert np.max(np.abs(hom_scan(few, spec, DELAYS).probabilities
                         - hom_scan(dense, spec, DELAYS).probabilities)) > 1e-3
    # the delay reach widens the scanned fp's spread of group delays
    assert qpic.scan_grid(chip, 2.0 * DELAYS).rule["chip_spread_ps"] > \
        grids[0].rule["chip_spread_ps"]


def test_temperature_scan_sizes_its_grid(chip, monkeypatch):
    built = []
    build = detection.build_jsa

    def recording(model, source, grid, temperature=None):
        built.append(grid)
        return build(model, source, grid, temperature)

    monkeypatch.setattr(detection, "build_jsa", recording)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    temperature_scan(chip, [24.5], DELAYS[::6])
    assert built == [qpic.scan_grid(chip, DELAYS[::6])]
    assert built[0].rule == qpic.scan_grid(chip, DELAYS[::6]).rule
