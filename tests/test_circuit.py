"""Netlist parsing and frequency-dependent circuit composition."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qpic
from qpic import circuit
from qpic.circuit import (CHANNEL1_INPUTS, ELEMENT_FACTORIES, CircuitSpec,
                          ElementDecl, element_matrices, parse_netlist_text,
                          walk)
from qpic.dispersion import (LAMBDA_MAX, LAMBDA_MIN, TEMP_MAX, TEMP_MIN,
                             omega_from_wavelength)
from qpic.errors import NetlistError
from tests import oracles
from tests.conftest import walked

OMEGA = omega_from_wavelength(np.linspace(1.52, 1.58, 5))

MINIMAL = """
[source]
pump_wavelength = 0.775
pulse_duration = 1000.0
poling_period = 9.217870197227
pdc_length = 20700.0
"""


def test_bundled_chip_structure(chip):
    kinds = [e.kind for e in chip.elements]
    assert kinds == ["fp", "pbs", "fp", "pc", "fp", "bs"]
    assert chip.temperature == 24.5
    assert chip.source.pump_wavelength == 0.775
    assert chip.source.pulse_duration == 1000.0
    assert chip.source.pdc_length == 20700.0


def test_empty_element_list_is_identity():
    spec = parse_netlist_text(MINIMAL)
    assert spec.elements == ()
    u = walked(spec, OMEGA)
    assert np.allclose(u, np.eye(4), atol=0)


def test_compose_order():
    # last element in the file acts last: U = E_n ... E_1
    text = MINIMAL + """
element pm
phi_h = 0.4
phi_v = 0.0

element pbs
alpha = 1.5707963267948966
beta = 1.5707963267948966
"""
    spec = parse_netlist_text(text)
    u = walked(spec, OMEGA[0])
    phases = oracles.phase_table(OMEGA[0])
    mats = [em.evaluate(phases) for em in element_matrices(spec)]
    assert np.allclose(u, mats[1] @ mats[0], atol=1e-15)
    # 1H phase then H passthrough with i: entry (0,0) = i e^{i 0.4}
    assert u[0, 0] == pytest.approx(1j * np.exp(0.4j))


def test_compose_unitary(chip):
    u = walked(chip, OMEGA)
    eye = np.eye(4)
    defect = np.max(np.abs(np.swapaxes(u.conj(), -1, -2) @ u - eye))
    assert defect < 1e-12


def test_routing_columns_match_compose(chip):
    u = oracles.chip_matrix(chip, OMEGA)
    cols = walked(chip, OMEGA, CHANNEL1_INPUTS)
    # signal enters 1H (column 0), idler enters 1V (column 1)
    signal, idler = np.conj(u[..., :, 0]), np.conj(u[..., :, 1])
    assert np.allclose(signal, np.conj(cols[..., 0]), atol=0)
    assert np.allclose(idler, np.conj(cols[..., 1]), atol=0)
    # each routed amplitude set is a unit vector
    assert np.allclose(np.sum(np.abs(signal) ** 2, axis=-1), 1.0, atol=1e-12)
    assert np.allclose(np.sum(np.abs(idler) ** 2, axis=-1), 1.0, atol=1e-12)


def test_at_temperature_rebuilds(chip):
    warm = chip.at_temperature(30.0)
    assert warm.temperature == 30.0
    assert [e.kind for e in warm.elements] == [e.kind for e in chip.elements]
    u_cold = walked(chip, OMEGA[0])
    u_warm = walked(warm, OMEGA[0])
    assert np.max(np.abs(u_cold - u_warm)) > 1e-6


def test_with_elements_replaces(chip):
    trimmed = chip.with_elements(chip.elements[:1])
    assert len(trimmed.elements) == 1
    assert trimmed.model is chip.model


def test_unknown_element_kind():
    with pytest.raises(NetlistError, match="line 8"):
        parse_netlist_text(MINIMAL + "\nelement warp\nspeed = 9\n")


# the netlist format: element kind -> (required keys, optional keys)
NETLIST_KEYS = {
    "pbs": ({"alpha", "beta"}, set()),
    "bs": ({"theta", "xi"}, set()),
    "pm": ({"phi_h", "phi_v"}, set()),
    "pc": ({"poling_period", "length", "kappa"}, set()),
    "fp": ({"l1", "l2"}, set()),
    "eobs": ({"kappa_c", "half_length", "dbeta_1", "dbeta_2"},
             {"dbeta_1_v", "dbeta_2_v"}),
}

# a valid value of every key
KEY_VALUES = {"alpha": 1.5707963267948966, "beta": 1.5707963267948966,
              "theta": 0.7853981633974483, "xi": 0.7853981633974483,
              "phi_h": 0.4, "phi_v": 0.0, "poling_period": 21.124408686252,
              "length": 2540.0, "kappa": 3.092118753533261e-4, "l1": 10.0,
              "l2": 10.0, "kappa_c": 1.9634954084936207e-4,
              "half_length": 4000.0, "dbeta_1": 0.0, "dbeta_2": 0.0,
              "dbeta_1_v": 1.0e-2, "dbeta_2_v": 1.0e-2}


def element_text(kind, keys):
    return f"\nelement {kind}\n" + "".join(
        f"{key} = {KEY_VALUES[key]!r}\n" for key in sorted(keys))


def test_netlist_keys_are_the_factory_parameters():
    # renaming a factory parameter renames a netlist key: it must show here
    assert set(ELEMENT_FACTORIES) == set(NETLIST_KEYS)
    for kind, (required, optional) in NETLIST_KEYS.items():
        assert circuit._element_keys(kind) == (required, optional)
        for keys in (required, required | optional):
            spec = parse_netlist_text(MINIMAL + element_text(kind, keys))
            assert spec.elements[0].kind == kind
            assert set(spec.elements[0].params) == keys


def test_unknown_parameter():
    for kind, (required, optional) in NETLIST_KEYS.items():
        text = MINIMAL + element_text(kind, required | optional) \
            + "l3 = 10.0\n"
        with pytest.raises(NetlistError, match=f"'l3' in element '{kind}'"):
            parse_netlist_text(text)


def test_missing_parameter():
    for kind, (required, optional) in NETLIST_KEYS.items():
        for key in required:
            text = MINIMAL + element_text(kind, required - {key})
            with pytest.raises(NetlistError, match=f"missing key.*'{key}'"):
                parse_netlist_text(text)


def test_duplicate_parameter():
    text = MINIMAL + "\nelement fp\nl1 = 10.0\nl1 = 11.0\nl2 = 10.0\n"
    with pytest.raises(NetlistError, match="duplicate"):
        parse_netlist_text(text)


def test_bad_number_reports_position():
    text = MINIMAL + "\nelement fp\nl1 = ten\nl2 = 10.0\n"
    with pytest.raises(NetlistError) as info:
        parse_netlist_text(text)
    assert "line 9" in str(info.value)
    assert "column" in str(info.value)


def test_source_section_optional():
    # a circuit-only netlist parses; the source fields stay unset
    spec = parse_netlist_text("element fp\nl1 = 1.0\nl2 = 1.0\n")
    assert spec.source is None
    u = walked(spec, OMEGA[0])
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12


def test_source_keys_are_the_spec_fields():
    # renaming a SourceSpec field renames a [source] key: it must show here
    keys = {"pump_wavelength", "pulse_duration", "poling_period",
            "pdc_length"}
    assert {f.name for f in dataclasses.fields(qpic.SourceSpec)} == keys
    assert circuit._SECTION_SCHEMA["[source]"] == (keys, set())
    assert parse_netlist_text(MINIMAL).source == qpic.SourceSpec(
        pump_wavelength=0.775, pulse_duration=1000.0,
        poling_period=9.217870197227, pdc_length=20700.0)


@pytest.mark.parametrize("params, error, match", [
    ({"l1": 1.0, "l2": 1.0, "l3": 2.0}, qpic.ValidationError,
     "element 'fp': unknown key 'l3'"),
    ({"l1": 1.0}, qpic.ValidationError, "element 'fp': missing key 'l2'"),
    ({"l1": "1", "l2": 1.0}, qpic.ValidationError,
     "element 'fp': l1 must be a number, got '1'"),
    ({"l1": -1.0, "l2": 1.0}, qpic.RangeError,
     "fp lengths (-1.0, 1.0) um must be >= 0"),
    (None, qpic.ValidationError,
     "element 'fp': params must be a mapping of key to value, got None"),
    ([("l1", 1.0), ("l2", 1.0)], qpic.ValidationError,
     "element 'fp': params must be a mapping of key to value, got [("),
], ids=["unknown", "missing", "not-a-number", "range", "None", "pairs"])
def test_build_element_rejects_bad_params(params, error, match):
    # a chip built in the library, not parsed, meets the same checks, and
    # the factory's own, when the declaration is built
    with pytest.raises(error, match=re.escape(match)) as info:
        ElementDecl("fp", params)
    assert type(info.value) is error


@pytest.mark.parametrize("elements, match", [
    (("fp",), "circuit element 'fp' is not an ElementDecl"),
    ([("fp", {"l1": 1.0, "l2": 1.0})],
     "circuit element ('fp', {'l1': 1.0, 'l2': 1.0}) is not an ElementDecl"),
    (None, "circuit elements must be a sequence of ElementDecl, got None"),
], ids=["kind", "pair", "None"])
def test_chip_elements_must_be_declarations(chip, elements, match):
    # a chip that builds can be scanned: no AttributeError at the first walk
    with pytest.raises(qpic.ValidationError, match=re.escape(match)):
        CircuitSpec(elements=elements)
    with pytest.raises(qpic.ValidationError, match=re.escape(match)):
        chip.with_elements(elements)


def test_chip_stores_its_elements_as_a_tuple(chip):
    assert chip.with_elements(list(chip.elements)).elements == chip.elements
    assert type(CircuitSpec(elements=[]).elements) is tuple


@pytest.mark.parametrize("unset", [
    lambda spec: CircuitSpec(elements=(), temperature=None),
    lambda spec: dataclasses.replace(spec, temperature=None),
], ids=["CircuitSpec", "replace"])
def test_chip_temperature_must_be_set(chip, unset):
    # None is no temperature: the chip is not silently at T_REFERENCE
    with pytest.raises(qpic.ValidationError,
                       match="temperature must be a number, got None"):
        unset(chip)


def test_unknown_source_key():
    bad = MINIMAL.replace("pdc_length", "pdc_size")
    with pytest.raises(NetlistError):
        parse_netlist_text(bad)


def test_line_numbers_on_decls():
    text = MINIMAL + "\nelement fp\nl1 = 1.0\nl2 = 2.0\n"
    spec = parse_netlist_text(text)
    assert spec.elements[0].line == 8
    assert spec.elements[0].params == {"l1": 1.0, "l2": 2.0}


def test_eobs_optional_parameters():
    text = MINIMAL + """
element eobs
kappa_c = 1.9634954084936207e-4
half_length = 4000.0
dbeta_1 = 0.0
dbeta_2 = 0.0
dbeta_1_v = 1.0e-2
dbeta_2_v = 1.0e-2
"""
    spec = parse_netlist_text(text)
    u = walked(spec, OMEGA[0])
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12
    # H fully crosses at zero detuning; strongly detuned V stays put
    assert abs(u[2, 0]) ** 2 > 0.99
    assert abs(u[1, 1]) ** 2 > 0.99


def test_negative_length_rejected():
    text = MINIMAL + "\nelement fp\nl1 = -5.0\nl2 = 10.0\n"
    with pytest.raises((NetlistError, qpic.RangeError)):
        parse_netlist_text(text)


def test_material_section_file(tmp_path, model):
    from tests.conftest import bundled
    mat = bundled("linbo3.material")
    text = f"[material]\nfile = {mat}\ntemperature = 30.0\n" + MINIMAL.replace(
        "[source]", "[source]")
    net = tmp_path / "warm.net"
    net.write_text(text)
    spec = qpic.parse_netlist(net)
    assert spec.temperature == 30.0
    assert spec.model.name == model.name


def test_missing_material_file_names_its_line(tmp_path):
    net = tmp_path / "chip.net"
    net.write_text("[material]\nfile = none.material\n" + MINIMAL)
    material = tmp_path / "none.material"
    with pytest.raises(NetlistError, match=re.escape(
            f"{net}: line 2: cannot read material file {material}: ")):
        qpic.parse_netlist(net)


def test_material_temperature_out_of_range():
    # the parser names the line; a spec built in the library is checked
    # when it is built
    text = "[material]\ntemperature = 500\nelement fp\nl1 = 1\nl2 = 1\n"
    with pytest.raises(qpic.NetlistError, match=re.escape(
            "line 2: temperature 500.0 C outside validity range")):
        parse_netlist_text(text)
    with pytest.raises(qpic.RangeError, match=re.escape(
            "temperature 500.0 C outside validity range")):
        CircuitSpec(elements=(), temperature=500.0)


def test_bs_unbalanced_splitting():
    text = MINIMAL + "\nelement bs\ntheta = 0.5235987755982988\nxi = 0.5235987755982988\n"
    spec = parse_netlist_text(text)
    u = walked(spec, OMEGA[0])
    assert abs(u[0, 0]) ** 2 == pytest.approx(math.cos(math.pi / 6) ** 2, abs=1e-12)
    assert abs(u[2, 0]) ** 2 == pytest.approx(math.sin(math.pi / 6) ** 2, abs=1e-12)


def _params(**ranges):
    return st.fixed_dictionaries(
        {k: st.floats(lo, hi) for k, (lo, hi) in ranges.items()})


ELEMENT_PARAMS = {
    "pbs": _params(alpha=(0.0, math.pi / 2), beta=(0.0, math.pi / 2)),
    "bs": _params(theta=(0.0, math.pi / 4), xi=(0.0, math.pi / 4)),
    "pm": _params(phi_h=(-math.pi, math.pi), phi_v=(-math.pi, math.pi)),
    "pc": _params(poling_period=(5.0, 40.0), length=(100.0, 20000.0),
                  kappa=(0.0, 3e-3)),
    "fp": _params(l1=(0.0, 20000.0), l2=(0.0, 20000.0)),
    "eobs": _params(kappa_c=(0.0, 1e-3), half_length=(100.0, 8000.0),
                    dbeta_1=(-1e-3, 1e-3), dbeta_2=(-1e-3, 1e-3),
                    dbeta_1_v=(-1e-3, 1e-3), dbeta_2_v=(-1e-3, 1e-3)),
}

element_decls = st.sampled_from(sorted(ELEMENT_PARAMS)).flatmap(
    lambda kind: ELEMENT_PARAMS[kind].map(
        lambda params: ElementDecl(kind=kind, params=params)))


@given(decls=st.lists(element_decls, max_size=6),
       wavelengths=st.lists(st.floats(LAMBDA_MIN, LAMBDA_MAX), min_size=1,
                            max_size=4),
       temperature=st.floats(TEMP_MIN, TEMP_MAX))
def test_transfer_matches_dense_product(model, decls, wavelengths,
                                        temperature):
    spec = CircuitSpec(elements=tuple(decls), model=model,
                       temperature=temperature)
    omega = omega_from_wavelength(np.array(wavelengths))
    u = walked(spec, omega)

    product = oracles.chip_matrix(spec, omega)
    assert np.max(np.abs(u - product)) <= 1e-13

    eye = np.eye(4)
    assert np.max(np.abs(np.swapaxes(u.conj(), -1, -2) @ u - eye)) <= 1e-12

    cols = walked(spec, omega, CHANNEL1_INPUTS)
    assert np.max(np.abs(np.conj(cols[..., :, 0]) - u[..., :, 0].conj())) \
        <= 1e-15
    assert np.max(np.abs(np.conj(cols[..., :, 1]) - u[..., :, 1].conj())) \
        <= 1e-15


# every kind with the asymmetric settings that make a transpose matter: a
# pc that converts and an eobs whose two sections differ
ASYMMETRIC_PARAMS = dict(
    ELEMENT_PARAMS,
    pc=_params(poling_period=(5.0, 40.0), length=(100.0, 20000.0),
               kappa=(1e-4, 3e-3)),
    eobs=_params(kappa_c=(1e-4, 1e-3), half_length=(100.0, 8000.0),
                 dbeta_1=(1e-4, 1e-3), dbeta_2=(-1e-3, -1e-4),
                 dbeta_1_v=(1e-4, 1e-3), dbeta_2_v=(-1e-3, -1e-4)))

asymmetric_decls = st.sampled_from(sorted(ASYMMETRIC_PARAMS)).flatmap(
    lambda kind: ASYMMETRIC_PARAMS[kind].map(
        lambda params: ElementDecl(kind=kind, params=params)))


@given(decls=st.lists(asymmetric_decls, max_size=6),
       rows=st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True),
       wavelengths=st.lists(st.floats(LAMBDA_MIN, LAMBDA_MAX), min_size=1,
                            max_size=4),
       temperature=st.floats(TEMP_MIN, TEMP_MAX))
def test_transfer_rows_match_compose(model, decls, rows, wavelengths,
                                     temperature):
    spec = CircuitSpec(elements=tuple(decls), model=model,
                       temperature=temperature)
    omega = omega_from_wavelength(np.array(wavelengths))
    u = oracles.chip_matrix(spec, omega)
    t = walked(spec, omega, np.eye(4)[:, rows], transposed=True)
    assert t.shape == omega.shape + (4, len(rows))
    # t[..., j, r] = U[rows[r], j]
    assert np.max(np.abs(np.swapaxes(t, -1, -2) - u[..., rows, :])) <= 1e-14


CONSTANT_ONLY = MINIMAL + """
element pbs
alpha = 1.2
beta = 0.4

element pm
phi_h = 0.4
phi_v = -1.1

element bs
theta = 0.3
xi = 0.7
"""


@pytest.mark.parametrize("text", [MINIMAL, CONSTANT_ONLY],
                         ids=["empty", "constant"])
def test_frequency_free_chain_fills_the_grid(text):
    spec = parse_netlist_text(text)
    omega = OMEGA[:4].reshape(2, 2)
    dense = oracles.chip_matrix(spec, OMEGA[0])
    inputs = np.eye(4)[:, 1:3]
    for out, want in ((walked(spec, omega, inputs), dense[:, 1:3]),
                      (walked(spec, omega, inputs, transposed=True),
                       dense.T[:, 1:3])):
        assert out.shape == (2, 2, 4, 2)
        assert np.max(np.abs(out - want)) <= 1e-15
    assert np.all(inputs == np.eye(4)[:, 1:3])


def test_compose_keeps_the_shape_of_omega(chip):
    grid = OMEGA[:4].reshape(2, 2)
    u = walked(chip, grid)
    assert walked(chip, OMEGA[0]).shape == (4, 4)
    assert u.shape == (2, 2, 4, 4)
    for i in range(2):
        for j in range(2):
            assert np.max(np.abs(u[i, j] - walked(chip, grid[i, j]))) \
                <= 1e-15


def test_structural_zeros_stay_exact(chip):
    # fp, pbs and fp keep polarisation: the H-born photon never reaches 2V
    # and the V-born photon never reaches 2H
    prefix = chip.with_elements(chip.elements[:3])
    omega = OMEGA[:4].reshape(2, 2)
    table = walk(element_matrices(prefix), CHANNEL1_INPUTS,
                 oracles.phase_table(omega, prefix.model, prefix.temperature))
    assert table[3][0] is None and table[2][1] is None
    out = walked(prefix, omega, CHANNEL1_INPUTS)
    assert out.shape == (2, 2, 4, 2)
    assert np.all(out[..., 3, 0] == 0) and np.all(out[..., 2, 1] == 0)
    assert np.all(out[..., 2, 0] != 0) and np.all(out[..., 3, 1] != 0)


def test_public_api():
    # adding or removing an export is a deliberate edit of this list
    assert sorted(qpic.__all__) == [
        "BASIS", "C_UM_PS", "CircuitSpec", "ConversionWindow", "CouplerFit",
        "ElementDecl", "ElementMatrix", "GridSpec", "JointSpectralAmplitude",
        "MarginalSpectra", "MaterialModel", "NetlistError", "NumericalError",
        "PhaseMatchError", "QpicError", "RangeError", "ScanResult",
        "SellmeierSet", "SourceSpec", "SpectralDensity",
        "SweepPoint", "TemperaturePoint",
        "TuningCurve", "ValidationError", "apply_imperfection", "bs_matrix",
        "build_jsa", "circuit", "cmt", "coincidence", "compose_sections",
        "conversion_fraction", "default_delay_values",
        "default_material", "degenerate_wavelength", "detection",
        "dispersion", "element_matrices", "elements", "eo_bs_dbeta",
        "eo_bs_matrix", "errors", "fit_coupler", "fp_matrix", "group_index",
        "group_velocity", "hom_scan", "imperfection_sweep", "index",
        "jsa_exchange_asymmetry", "keyfile", "load_coupler_fit",
        "load_material", "marginal_spectra", "mode_index",
        "omega_from_wavelength", "parse_netlist", "parse_netlist_text",
        "pbs_angles", "pbs_matrix", "pc_kappa", "pc_matched_wavelength",
        "pc_matrix", "pc_mismatch", "pc_window", "pdc_mismatch",
        "peak_fwhm", "pm_matrix", "pm_phases", "save_coupler_fit",
        "scan_grid", "source", "splitting_ratio", "switch_map", "temperature_scan", "tuning_curve",
        "wavelength_from_omega", "wavevector"]
