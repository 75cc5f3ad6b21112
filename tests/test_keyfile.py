"""The line format shared by netlists, material files and coupler fits."""

import re
from pathlib import Path

import pytest

import qpic
from qpic.keyfile import read_blocks
from tests.conftest import bundled

README = Path(__file__).resolve().parents[1] / "README.md"

# values frozen from the hand-written parsers this format replaced
ORDINARY = ("edwards-lawrence-1984", (4.9048, 0.11775, 0.21802, 0.027153),
            (2.2314e-8, -2.9671e-8, 2.1429e-8))
EXTRAORDINARY = ("jundt-1997",
                 (5.35583, 0.100473, 0.20692, 100.0, 11.34927, 0.015334),
                 (4.629e-7, 3.862e-8, -0.89e-8, 2.657e-5))
FP = {"l1": 5000.0, "l2": 5000.0}
PBS = {"alpha": 1.5707963267948966, "beta": 1.5707963267948966}
PC = {"poling_period": 21.124408686252, "length": 2540.0,
      "kappa": 6.184237507066522e-4}
BS = {"theta": 0.7853981633974483, "xi": 0.7853981633974483}
BUNDLED_CHAIN = [("fp", FP, 16), ("pbs", PBS, 20),
                 ("fp", {"l1": 15000.0, "l2": 15000.0}, 24), ("pc", PC, 28),
                 ("fp", {"l1": 10000.0, "l2": 10000.0}, 33), ("bs", BS, 37)]
README_CHAIN = [("fp", FP, 11), ("pbs", PBS, 15), ("pc", PC, 19),
                ("bs", BS, 24)]


def readme_blocks():
    netlist, material = re.findall(r"```ini\n(.*?)```", README.read_text(),
                                   re.S)
    return netlist, material


def assert_bundled_material(model):
    for branch, (form, a, b) in ((model.ordinary, ORDINARY),
                                 (model.extraordinary, EXTRAORDINARY)):
        assert (branch.form, branch.a, branch.b) == (form, a, b)
    assert (model.delta_n_h, model.delta_n_v) == (0.01, 0.01)
    assert model.name == "congruent LiNbO3, Ti-indiffused"


def assert_chip(spec, chain):
    assert [(d.kind, d.params, d.line) for d in spec.elements] == chain
    assert spec.temperature == 24.5
    assert (spec.pump.pump_wavelength, spec.pump.pulse_duration) == \
        (0.775, 1000.0)
    phase = spec.phase_spec
    assert (phase.poling_period, phase.pdc_length, phase.pump_wavelength) \
        == (9.217870197227, 20700.0, 0.775)
    assert_bundled_material(spec.model)


def test_bundled_files_parse_as_frozen():
    assert_chip(qpic.parse_netlist(bundled("ideal_chip.net")), BUNDLED_CHAIN)
    assert_bundled_material(qpic.load_material(bundled("linbo3.material")))
    assert_bundled_material(qpic.default_material())


def test_readme_examples_parse_as_frozen(tmp_path):
    netlist, material = readme_blocks()
    data = Path(str(bundled("ideal_chip.net"))).parent
    assert_chip(qpic.parse_netlist_text(netlist, base_dir=data), README_CHAIN)
    path = tmp_path / "readme.material"
    path.write_text(material)
    assert_bundled_material(qpic.load_material(path))


def test_blocks_keep_case_free_keys_positions_and_file_order():
    text = ("Name = x  # trailing comment\n\n"
            "[ Material ]\nFile =  a.material\n"
            "ELEMENT FP\nl1 = 1\n")
    assert read_blocks(text) == [
        (None, None, {"name": ("x", 1, 8)}),
        ("[material]", 3, {"file": ("a.material", 4, 9)}),
        ("ELEMENT FP", 5, {"l1": ("1", 6, 6)}),
    ]


@pytest.mark.parametrize("text, message", [
    ("[material\n", "line 1: unterminated section header"),
    ("element fp\nl1 = 1\nL1 = 2\n", "line 3: duplicate key 'l1'"),
])
def test_reader_rejects(text, message):
    with pytest.raises(qpic.NetlistError, match=re.escape(message)):
        read_blocks(text)
