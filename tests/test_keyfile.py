"""The line format shared by netlists, material files and coupler fits."""

import argparse
import re
from pathlib import Path

import pytest

import qpic
from qpic.cli import _finite, _read_ratio_csv, main
from qpic.keyfile import number, read_blocks
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
    assert spec.source == qpic.SourceSpec(
        pump_wavelength=0.775, pulse_duration=1000.0,
        poling_period=9.217870197227, pdc_length=20700.0)
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


# a number is what Python's float reads, in a file and in a float option
@pytest.mark.parametrize("text, value", [
    ("1_000", 1000.0), ("\u0663\u0660\u0660\u0660", 3000.0),
    ("\uff15\uff10\uff10\uff10", 5000.0),
], ids=["underscore", "arabic-indic", "full-width"])
def test_number_spellings_float_reads(text, value):
    assert number((text, 1, 5)) == value
    assert _finite(text) == value


@pytest.mark.parametrize("text, message", [
    ("0x10", "not a number: '0x10'"), ("nan", "value must be finite: 'nan'"),
    ("inf", "value must be finite: 'inf'"),
], ids=["hex", "nan", "inf"])
def test_number_spellings_rejected(text, message):
    with pytest.raises(qpic.NetlistError,
                       match=re.escape(f"line 1, column 5: {message}")):
        number((text, 1, 5))
    with pytest.raises((ValueError, argparse.ArgumentTypeError)):
        _finite(text)


def test_readme_python_blocks_run(monkeypatch, capsys):
    # the "Library use" snippet runs from the repository root, so an API
    # change cannot leave it stale
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    monkeypatch.chdir(README.parent)
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out


# each file reader: the name its errors give the file, and the commands
# that read one (no command loads a coupler fit)
READERS = {
    "netlist": (qpic.parse_netlist,
                [["hom", "--grid", "32", "--points", "3", "--netlist"]]),
    "material file": (qpic.load_material, [["tuning", "--material"],
                                           ["pc-window", "--material"]]),
    "coupler fit": (qpic.load_coupler_fit, []),
    "ratio table": (_read_ratio_csv, [["coupler-fit", "--te"]]),
}


def _unreadable(tmp_path, kind):
    path = tmp_path / kind
    if kind == "directory":
        path.mkdir()
    elif kind == "binary":  # not UTF-8
        path.write_bytes(b"\x7fELF\x02\x80\xff\x00\n")
    return path


def assert_exits_two(tmp_path, capsys, argv, path):
    out = tmp_path / "out"
    assert main([*argv, "-o", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


@pytest.mark.parametrize("kind", ["missing", "directory", "binary"])
@pytest.mark.parametrize("what", list(READERS))
def test_unreadable_file_is_a_validation_error(tmp_path, capsys, what, kind):
    # a directory or a non-UTF-8 file gave IsADirectoryError or
    # UnicodeDecodeError, and exit 1 with a traceback
    read, commands = READERS[what]
    path = _unreadable(tmp_path, kind)
    with pytest.raises(qpic.ValidationError,
                       match=re.escape(f"cannot read {what} {path}: ")):
        read(path)
    for argv in commands:
        assert_exits_two(tmp_path, capsys, [*argv, str(path)], path)


@pytest.mark.parametrize("kind", ["directory", "binary"])
def test_unreadable_netlist_material(tmp_path, capsys, kind):
    material = _unreadable(tmp_path, kind)
    netlist = tmp_path / "chip.net"
    netlist.write_text(bundled("ideal_chip.net").read_text().replace(
        "file = linbo3.material", f"file = {kind}"))
    message = f"cannot read material file {material}: "
    with pytest.raises(qpic.ValidationError, match=re.escape(message)):
        qpic.parse_netlist(netlist)
    assert_exits_two(tmp_path, capsys, READERS["netlist"][1][0]
                     + [str(netlist)], material)
