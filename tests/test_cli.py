"""Command line interface: artifacts, formats, exit codes, reproducibility."""

import argparse
import csv
import gc
import io
import json
import hashlib
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpic
from qpic import cli, cmt, source
from qpic.cli import main
from qpic.detection import IMPERFECTION_TARGETS, QUERIES

FAST_HOM = ["--grid", "64", "--points", "9"]


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main([*argv, "-o", str(out)])
    return code, out


def test_hom_artifacts(tmp_path):
    code, out = run(tmp_path, "hom", *FAST_HOM)
    assert code == 0
    csv_path = out / "hom_scan.csv"
    manifest_path = out / "hom_manifest.json"
    assert csv_path.exists() and manifest_path.exists()

    blob = csv_path.read_bytes()
    # RFC 4180: CRLF record separators
    assert b"\r\n" in blob
    lines = blob.decode("ascii").split("\r\n")
    assert lines[0] == "delta_l_um,coincidence_probability"
    assert len([ln for ln in lines if ln]) == 10
    # every numeric field carries 12 significant digits
    for field in lines[1].split(","):
        assert re.fullmatch(r"-?\d\.\d{11}e[+-]\d{2,3}", field)

    manifest = json.loads(manifest_path.read_text())
    assert manifest["command"] == "hom"
    assert manifest["summary"]["visibility"] > 0.9
    assert "versions" in manifest and "numpy" in manifest["versions"]
    # recorded output hash matches the file on disk
    entry = [o for o in manifest["outputs"] if o["path"] == "hom_scan.csv"][0]
    assert entry["sha256"] == hashlib.sha256(blob).hexdigest()
    # input netlist recorded with its hash
    assert manifest["inputs"][0]["path"].endswith("ideal_chip.net")


def test_reproducible_byte_identical(tmp_path):
    code_a, out_a = run(tmp_path / "a", "hom", *FAST_HOM)
    code_b, out_b = run(tmp_path / "b", "hom", *FAST_HOM)
    assert code_a == code_b == 0
    assert (out_a / "hom_scan.csv").read_bytes() == (out_b / "hom_scan.csv").read_bytes()
    ma = json.loads((out_a / "hom_manifest.json").read_text())
    mb = json.loads((out_b / "hom_manifest.json").read_text())
    assert ma["outputs"] == mb["outputs"]
    assert ma["summary"] == mb["summary"]


def test_manifest_names_bundled_input_by_package_path(tmp_path):
    # an absolute path would differ between checkouts of the same code
    code, out = run(tmp_path, "hom", *FAST_HOM)
    assert code == 0
    manifest = json.loads((out / "hom_manifest.json").read_text())
    [entry] = manifest["inputs"]
    assert entry["path"] == "qpic/data/ideal_chip.net"
    assert not Path(entry["path"]).is_absolute()
    bundled = Path(qpic.__path__[0]) / "data" / "ideal_chip.net"
    assert entry["sha256"] == hashlib.sha256(bundled.read_bytes()).hexdigest()


def test_manifest_names_user_input_as_given(tmp_path):
    data = Path(qpic.__path__[0]) / "data"
    for name in ("ideal_chip.net", "linbo3.material"):
        (tmp_path / name).write_bytes((data / name).read_bytes())
    netlist = tmp_path / "ideal_chip.net"
    code, out = run(tmp_path, "hom", *FAST_HOM, "--netlist", str(netlist))
    assert code == 0
    manifest = json.loads((out / "hom_manifest.json").read_text())
    assert manifest["inputs"][0]["path"] == str(netlist)


def test_gnuplot_script(tmp_path):
    code, out = run(tmp_path, "hom", *FAST_HOM, "--gnuplot-script")
    assert code == 0
    script = (out / "hom_scan.gp").read_text()
    assert "hom_scan.csv" in script
    manifest = json.loads((out / "hom_manifest.json").read_text())
    assert any(o["path"] == "hom_scan.gp" for o in manifest["outputs"])


def test_jsa_command(tmp_path):
    code, out = run(tmp_path, "jsa", "--grid", "64", "--dump-grid")
    assert code == 0
    csv_lines = (out / "jsa_marginals.csv").read_bytes().decode().split("\r\n")
    assert csv_lines[0].startswith("photon,wavelength_um")
    grid_files = list(out.glob("*amplitude*")) + list(out.glob("*grid*"))
    assert grid_files, "dump-grid should write the amplitude table"


def test_sweep_command(tmp_path):
    code, out = run(tmp_path, "sweep", "--element", "pc", "--grid", "64",
                    "--points", "9", "--fractions", "0,1")
    assert code == 0
    lines = (out / "sweep_summary.csv").read_bytes().decode().split("\r\n")
    assert lines[0].split(",")[0] == "fraction"
    rows = [ln.split(",") for ln in lines[1:] if ln]
    assert len(rows) == 2
    # fully broken converter kills the V,V rate
    assert float(rows[1][3]) < 1e-9


def test_pc_window_command(tmp_path):
    code, out = run(tmp_path, "pc-window")
    assert code == 0
    manifest = json.loads((out / "pc_window_manifest.json").read_text())
    assert manifest["summary"]["fwhm_um"] * 1e3 == pytest.approx(3.18, abs=0.05)
    assert manifest["summary"]["peak_fraction"] == pytest.approx(1.0, abs=1e-6)


def test_switch_map_command(tmp_path):
    code, out = run(tmp_path, "switch-map", "--points", "21")
    assert code == 0
    s = json.loads((out / "switch_map_manifest.json").read_text())["summary"]
    assert s["bar_min"] < 0.01
    assert s["bar_max"] > 0.99


def test_coupler_fit_command(tmp_path):
    code, out = run(tmp_path, "coupler-fit")
    assert code == 0
    fit = qpic.load_coupler_fit(out / "coupler_fit.txt")
    assert fit.beat_te == pytest.approx(900.0, abs=20.0)
    assert fit.beat_tm == pytest.approx(850.0, abs=20.0)
    s = json.loads((out / "coupler_fit_manifest.json").read_text())["summary"]
    assert s["ratio_h"] < 0.05 and s["ratio_v"] < 0.05
    assert 0 < s["alpha_rad"] <= np.pi / 2


def _run_fresh(*args, cwd):
    # a new interpreter: the test process has imported scipy itself
    src = str(Path(qpic.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


_SCIPY_MODULES = ("sorted(m for m in sys.modules "
                  "if m == 'scipy' or m.startswith('scipy.'))")


def test_import_leaves_out_scipy_optimize(tmp_path):
    # the scans fork their workers with os alone: no process pool either
    probe = _run_fresh("-c", "import sys, qpic.cli; "
                       f"print({_SCIPY_MODULES}, "
                       "'concurrent.futures' in sys.modules, "
                       "'multiprocessing' in sys.modules)", cwd=tmp_path)
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "[] False False"
    # coupler-fit runs its own least squares: no scipy module at all
    fit = _run_fresh("-c", "import sys; from qpic.cli import main; "
                     "code = main(['coupler-fit', '-o', 'out']); "
                     f"print(code, {_SCIPY_MODULES})", cwd=tmp_path)
    assert fit.returncode == 0, fit.stderr
    assert fit.stdout.strip() == "0 []"
    values = dict(line.split(" = ") for line in
                  (tmp_path / "out" / "coupler_fit.txt").read_text()
                  .splitlines())
    # the least-squares minimum (test_cmt.test_bundled_fit_is_stationary)
    expected = {"beat_te": 899.698621742866, "offset_te": 450.21151914611806,
                "beat_tm": 850.1030792820096, "offset_tm": 530.0293332597788}
    assert values.keys() == expected.keys()
    for key, value in expected.items():
        assert float(values[key]) == pytest.approx(value, rel=1e-12)


def test_coupler_fit_failure_exits_three(tmp_path):
    flat = tmp_path / "flat.csv"
    flat.write_text("coupler_length_um,splitting_ratio\n" + "".join(
        f"{length},0.5\n" for length in range(100, 1301, 50)))
    out = tmp_path / "out"
    assert main(["coupler-fit", "--te", str(flat), "-o", str(out)]) == 3
    with mock.patch.object(cmt, "FIT_MAX_ITER", 3):
        assert main(["coupler-fit", "-o", str(out)]) == 3
    assert not out.exists()


def test_tuning_command(tmp_path):
    code, out = run(tmp_path, "tuning", "--tmin", "20", "--tmax", "30",
                    "--tstep", "2")
    assert code == 0
    lines = (out / "tuning_temperature.csv").read_bytes().decode().split("\r\n")
    rows = np.array([ln.split(",") for ln in lines[1:] if ln], dtype=float)
    assert len(rows) == 6
    # degeneracy walks to shorter wavelength as the chip heats
    assert np.all(np.diff(rows[:, 1]) < 0)
    s = json.loads((out / "tuning_manifest.json").read_text())["summary"]
    assert s["degeneracy_slope_um_per_c"] < 0


def test_temp_scan_command(tmp_path):
    code, out = run(tmp_path, "temp-scan", "--grid", "64", "--points", "9",
                    "--temperatures", "24.5,29.5")
    assert code == 0
    lines = (out / "temp_scan.csv").read_bytes().decode().split("\r\n")
    header = lines[0].split(",")
    assert "outside_window" in header
    rows = [ln.split(",") for ln in lines[1:] if ln]
    assert len(rows) == 2
    flag = rows[0][header.index("outside_window")]
    assert flag in ("0", "1")
    s = json.loads((out / "temp_scan_manifest.json").read_text())["summary"]
    assert s["best_temperature_c"] == pytest.approx(24.5)


def test_exit_code_validation(tmp_path):
    assert main(["hom", "--grid", "2", "-o", str(tmp_path)]) == 2
    assert main(["hom", "--netlist", str(tmp_path / "nope.net"),
                 "-o", str(tmp_path)]) == 2


def test_negative_exponent_in_the_equals_form(tmp_path):
    # argparse reads a value such as -1.5e3 after a space as an option
    # (Python 3.11); joined to its option by "=" it is a value
    code, out = run(tmp_path, "hom", "--grid", "16", "--points", "5",
                    "--lmin=-1.5e3", "--lmax", "3700")
    assert code == 0
    rows = (out / "hom_scan.csv").read_bytes().split(b"\r\n")
    assert float(rows[1].split(b",")[0]) == -1500.0


def test_exit_code_negative_length(tmp_path):
    # l2 + delay < 0 at the scanned fp (l2 = 15000 um on the bundled chip)
    assert main(["hom", "--grid", "32", "--lmin", "-20000", "--lmax",
                 "-18000", "--points", "3", "-o", str(tmp_path)]) == 2


# what the error message of a test_bad_input_exits_two case must name,
# where the case pins it: every pump is checked, not only the median
_ERROR_NAMES = {
    "tuning-pumps-below-range": "pump wavelength 0.3 um outside [0.6, 0.9]",
    "tuning-pumps-straddle-range":
        "pump wavelength 0.5 um outside [0.6, 0.9]",
    "tuning-poling-0": "poling period 0.0 um must be > 0",
    "tuning-poling-negative": "poling period -9.0 um must be > 0",
    "hom-tau-1e-200": "pulse_duration 1e-200 ps",
    "hom-pdc-length-subnormal": "pdc_length (5e-324 um)",
    "jsa-grid-over-ceiling":
        "grid size_sum 200000 x size_diff 200000: more than 16777216 points",
    "hom-sum-rows-over-ceiling":
        "scan grid of 144915 sum rows (pulse_duration 1.0 ps) x size_diff "
        "512: more than 16777216 points",
    "hom-rounded-rows-over-ceiling":
        "grid size_sum 32 x size_diff 600000: more than 16777216 points",
    "tuning-pump-points-1": "--pump-points 1 is not an int >= 2",
    "hom-points-over-ceiling": "--points 1e+08: more than 16777216 points",
    "pc-window-points-over-ceiling":
        "--points 1e+09: more than 16777216 points",
    "switch-map-points-over-ceiling":
        "switch map of --points x --points 100000: more than 16777216 points",
    "tuning-pump-points-over-ceiling":
        "--pump-points 1e+08: more than 16777216 points",
    "tuning-tstep-over-ceiling":
        "--tstep temperatures 2.5e+10: more than 16777216 points",
    "temp-scan-tstep-over-ceiling":
        "--tstep temperatures 9e+09: more than 16777216 points",
    # a count above the ceiling prints with %.6g, not its 301 digits
    "tuning-tmin-huge": "--tstep temperatures 2e+300: more than 16777216 "
                        "points",
    # every root scan is counted as problems x samples before it runs
    "tuning-root-scans-over-ceiling":
        "root scans of 301 samples x temperatures 62501: more than 16777216 "
        "points",
    "tuning-pump-scans-over-ceiling":
        "root scans of 401 samples x pumps 41900: more than 16777216 points",
    # the phase overflows: refused before any sin or cos warns
    "switch-map-phase-overflow": "section phase must be finite, got inf",
    "coupler-phase-overflow": "coupler phase must be finite, got inf",
    "tuning-tstep-below-ulp-empty":
        "--tstep temperatures 0 is not an int >= 1",
    "tuning-tstep-below-ulp-repeats":
        "--tstep temperatures must be strictly increasing",
    "tuning-tstep-subnormal": "--tstep temperatures must be finite, got inf",
    "pc-window-length-subnormal":
        "converter length 5e-324 um gives a conversion window -inf to inf um",
    "coupler-length-negative": "coupler length must be >= 0 um, got -1.0",
}


@pytest.mark.parametrize("argv", [
    ["jsa", "--grid", "0"],
    ["pc-window", "--length", "0"],
    ["temp-scan", "--temperatures", ",", "--grid", "32", "--points", "3"],
    ["temp-scan", "--tmin", "30", "--tmax", "20", "--grid", "32",
     "--points", "3"],
    ["coupler-fit", "--te", "{nan_table}"],
    ["coupler-fit", "--te", "{nan_length_table}"],
    ["coupler-fit", "--tm", "{inf_length_table}"],
    ["tuning", "--tmin", "30", "--tmax", "20"],
    ["pc-window", "--points", "0"],
    ["pc-window", "--points", "1"],
    ["tuning", "--pump-points", "1"],
    ["sweep", "--element", "pc", "--fractions", "0,nan", "--grid", "32",
     "--points", "3"],
    ["hom", "--pc-length", "0", "--grid", "32", "--points", "3"],
    ["temp-scan", "--pc-length", "1e-9", "--grid", "32", "--points", "3"],
    ["temp-scan", "--pc-length", "5", "--grid", "32", "--points", "3"],
    ["pc-window", "--length", "5"],
    ["tuning", "--material", "{nan_material}"],
    ["switch-map", "--kappa-c=-1e-4"],
    ["switch-map", "--half-length", "0"],
    ["tuning", "--pump-points", "5", "--pump-min", "0.3", "--pump-max", "0.5"],
    ["tuning", "--pump-points", "5", "--pump-min", "0.5", "--pump-max", "0.7"],
    ["tuning", "--poling", "0"],
    ["tuning", "--poling", "-9"],
    ["hom", "--tau", "1e-200", "--grid", "16", "--points", "5"],
    ["hom", "--pdc-length", "5e-324", "--grid", "16", "--points", "5"],
    ["jsa", "--grid", "200000"],
    ["hom", "--tau", "1", "--lmax", "1e7"],
    ["hom", "--grid", "600000"],
    ["hom", "--points", "100000000"],
    ["pc-window", "--points", "1000000000"],
    ["switch-map", "--points", "100000"],
    ["tuning", "--pump-points", "100000000"],
    ["tuning", "--tstep", "1e-9"],
    ["temp-scan", "--tstep", "1e-9"],
    ["coupler-fit", "--length=-1"],
    ["tuning", "--tmin", "20", "--tmax", "20", "--tstep", "1e-15"],
    ["tuning", "--tmin", "20", "--tmax", "20.000000000000004", "--tstep",
     "1e-15"],
    ["tuning", "--tstep", "5e-324"],
    ["pc-window", "--kappa=1e308", "--length=5e-324"],
    ["tuning", "--tmin=-1e300"],
    ["tuning", "--tstep", "0.0004"],
    ["tuning", "--pump-points", "41900"],
    ["switch-map", "--kappa-c=1e308"],
    ["coupler-fit", "--length=1e308"],
], ids=["grid-0", "pc-length-0", "no-temperatures", "empty-temp-range",
        "nan-ratio", "nan-length", "inf-length", "tuning-tmax-below-tmin",
        "pc-points-0", "pc-points-1", "tuning-pump-points-1",
        "fractions-nan", "hom-pc-length-0", "temp-scan-pc-length-tiny",
        "temp-scan-pc-length-5", "pc-window-length-5", "material-nan",
        "switch-map-kappa-negative", "switch-map-half-length-0",
        "tuning-pumps-below-range", "tuning-pumps-straddle-range",
        "tuning-poling-0", "tuning-poling-negative", "hom-tau-1e-200",
        "hom-pdc-length-subnormal", "jsa-grid-over-ceiling",
        "hom-sum-rows-over-ceiling", "hom-rounded-rows-over-ceiling",
        "hom-points-over-ceiling", "pc-window-points-over-ceiling",
        "switch-map-points-over-ceiling", "tuning-pump-points-over-ceiling",
        "tuning-tstep-over-ceiling", "temp-scan-tstep-over-ceiling",
        "coupler-length-negative", "tuning-tstep-below-ulp-empty",
        "tuning-tstep-below-ulp-repeats", "tuning-tstep-subnormal",
        "pc-window-length-subnormal", "tuning-tmin-huge",
        "tuning-root-scans-over-ceiling", "tuning-pump-scans-over-ceiling",
        "switch-map-phase-overflow", "coupler-phase-overflow"])
def test_bad_input_exits_two(tmp_path, capsys, request, argv):
    tables = {"nan_table": "150.0,nan", "nan_length_table": "nan,0.2",
              "inf_length_table": "inf,0.2"}
    for name, bad_row in tables.items():
        tables[name] = tmp_path / f"{name}.csv"
        tables[name].write_text("coupler_length_um,splitting_ratio\n"
                                f"100.0,0.3\n{bad_row}\n200.0,0.1\n"
                                "250.0,0.05\n")
    material = (Path(qpic.__path__[0]) / "data" / "linbo3.material")
    tables["nan_material"] = tmp_path / "nan.material"
    tables["nan_material"].write_text(
        material.read_text().replace("a = 4.9048", "a = nan"))
    out = tmp_path / "out"
    argv = [a.format(**tables) for a in argv]
    assert main([*argv, "-o", str(out)]) == 2
    assert not out.exists()  # nothing is written before every check passed
    named = _ERROR_NAMES.get(request.node.callspec.id, "")
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["switch-map", "--umin", "nan"],
    ["switch-map", "--half-length", "nan"],
    ["coupler-fit", "--length", "nan"],
    ["hom", "--lmax", "inf"],
    ["coupler-fit", "--gnuplot-script"],
    ["pc-window", "--kappa", "1e-4", "--voltage", "12"],
], ids=["umin-nan", "half-length-nan", "coupler-length-nan", "lmax-inf",
        "coupler-fit-gnuplot", "pc-window-kappa-and-voltage"])
def test_usage_error_writes_nothing(tmp_path, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main([*argv, "-o", str(out)])
    assert info.value.code == 2
    assert not out.exists()


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def test_main_leaves_the_collector_alone(tmp_path):
    # a caller that lives on after main keeps collecting its own garbage
    before = gc.get_freeze_count()
    assert main(["pc-window", "--points", "5", "-o", str(tmp_path)]) == 0
    assert gc.get_freeze_count() == before


def test_exit_freezes_what_is_left(tmp_path):
    # atexit runs handlers last in, first out: the probe runs after the
    # freeze that importing qpic.cli registers, before teardown collects
    probe = ("import atexit, gc; atexit.register(lambda: print("
             "gc.get_freeze_count() > 0)); import qpic.cli")
    assert _run_fresh("-c", probe, cwd=tmp_path).stdout == "True\n"


def test_single_temperature_slope_is_null(tmp_path):
    code, out = run(tmp_path, "tuning", "--tmin", "20", "--tmax", "20")
    assert code == 0
    summary = _strict_json((out / "tuning_manifest.json").read_text())[
        "summary"]
    assert summary["degeneracy_slope_um_per_c"] is None
    assert summary["n_temperatures"] == 1


def test_non_finite_summary_writes_nothing(tmp_path):
    artifacts = cli.Artifacts([], {"value": float("nan")}, [])
    with mock.patch.object(cli, "cmd_switch_map", return_value=artifacts):
        assert main(["switch-map", "-o", str(tmp_path / "out")]) == 3
    assert not (tmp_path / "out").exists()


def _old_fmt(value):
    # the per-value formatting the column writer replaced, as an oracle
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.11e}"


_SPECIAL_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0,
                   5e-324, -2.2e-310, 1e300, -1e-300, 9.999999999995e299,
                   # near ties and decade boundaries of the 12-digit rounding
                   9.9999999999949, 1.000000000005, 123456789012.5, 1e22,
                   1e23, -1e-100, 9.9999999999996, 999999999999.7,
                   -99999999999.9, 1e-99, 9.99999999999e99]
# csv.writer writes a lone empty field as "", so cells are never empty
_CELL_TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                                   blacklist_characters="\x00"),
                     min_size=1, max_size=4)
_COLUMN_VALUES = {
    "float": st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS)),
    "bool": st.booleans(),
    "str": _CELL_TEXT,
}


@st.composite
def _tables(draw):
    # columns of one 1-D or 2-D shape, each broadcast (stride 0) along
    # the axes where it holds one value
    kinds = draw(st.lists(st.sampled_from(sorted(_COLUMN_VALUES)),
                          min_size=1, max_size=4))
    shape = (draw(st.integers(0, 12)),
             *draw(st.lists(st.integers(1, 4), max_size=1)))
    header = draw(st.lists(_CELL_TEXT, min_size=len(kinds),
                           max_size=len(kinds)))
    columns = []
    for k in kinds:
        held = [n if draw(st.booleans()) else 1 for n in shape]
        size = int(np.prod(held))
        values = draw(st.lists(_COLUMN_VALUES[k], min_size=size,
                               max_size=size))
        columns.append(np.broadcast_to(np.array(
            values, dtype={"float": float, "bool": bool, "str": str}[k])
            .reshape(held), shape))
    return header, columns


def _assert_writes_as_csv_writer(path, header, columns, chunk_points):
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(header)
    for row in zip(*(np.ravel(c) for c in columns)):  # rows in C order
        writer.writerow([_old_fmt(v) for v in row])
    with mock.patch.object(source, "CHUNK_POINTS", chunk_points):
        cli._write_columns(path, header, columns)
    assert path.read_bytes() == expected.getvalue().encode("utf-8")


@given(table=_tables(), chunk_points=st.integers(1, 5))
def test_column_writer_matches_csv_writer(tmp_path_factory, table,
                                          chunk_points):
    _assert_writes_as_csv_writer(
        tmp_path_factory.getbasetemp() / "column_writer.csv", *table,
        chunk_points)


def test_column_writer_is_exact_on_every_float(tmp_path):
    # 10**6 floats of random bit patterns (every exponent, NaN payloads,
    # subnormals) and 10**5 decimal ties (k + 1/2) 10**j, whose binary
    # value sits just off the 12-digit tie on either side, and the special
    # floats
    rng = np.random.default_rng(27)
    bits = rng.integers(0, 2 ** 64, 10 ** 6, dtype=np.uint64,
                        endpoint=False).view(np.float64)
    ties = ((rng.integers(10 ** 11, 10 ** 12, 10 ** 5) + 0.5)
            * 10.0 ** rng.integers(-110, 89, 10 ** 5))
    _assert_writes_as_csv_writer(tmp_path / "floats.csv", ["a", "b"],
                                 bits.reshape(2, -1), source.CHUNK_POINTS)
    _assert_writes_as_csv_writer(tmp_path / "ties.csv", ["t"],
                                 [np.append(ties, _SPECIAL_FLOATS)],
                                 source.CHUNK_POINTS)


@pytest.mark.parametrize("bias", [-0.5, 0.5])
def test_column_writer_survives_a_log10_off_by_one(tmp_path, bias):
    # floor(log10|v|) is off by one for about half of these values; the
    # range test on m must send each of them to %
    log10 = np.log10
    values = np.geomspace(1e-90, 1e90, 10 ** 4) * (1.0 + 1e-9)
    with mock.patch.object(np, "log10", lambda a: log10(a) + bias):
        _assert_writes_as_csv_writer(tmp_path / "log10.csv", ["v"],
                                     [np.append(values, _SPECIAL_FLOATS)],
                                     source.CHUNK_POINTS)


def test_column_writer_chunk_edges(tmp_path):
    # fallback fields in the first and last row of a chunk; -5e-324 and
    # -1e-100 are 19 bytes, wider than a fast field
    floats = np.array([-5e-324, 1.5, -2.5, np.nan, 0.0, 3.25, 4.0, -1e-100])
    columns = [floats, floats[::-1], floats > 0.0,
               np.array(["a", "b,c", 'd"', "e"] * 2)]
    _assert_writes_as_csv_writer(tmp_path / "edges.csv",
                                 ["x", "y", "up", "name"], columns, 4)


def test_jsa_dump_holds_one_grid(tmp_path):
    # with row blocks of 4 grid rows, no stage holds a second grid: the
    # tracemalloc peak is the amplitude and one stage's own arrays, 1.72
    # amplitudes in the write of the marginals table (which also builds
    # the writer's lookup tables) and 1.69 in build_jsa (the |F|^2 of
    # its norm). A second complex grid in the marginals, the exchange
    # asymmetry or the dump would take it past 2.5
    tracemalloc.start()
    try:
        with mock.patch.object(source, "CHUNK_POINTS", 1024):
            assert main(["jsa", "--dump-grid", "--grid", "256",
                         "-o", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 256 * 256 * 16  # complex128 amplitude bytes


def test_checksums_run_with_no_grid_alive(tmp_path):
    # a large dump's checksum imports hashlib, whose OpenSSL maps 3.6 MB
    # of RSS: by then no table may hold the amplitude, through its views
    build, sha256 = cli.build_jsa, cli._sha256
    amplitude, dead = [], []

    def build_jsa(*args, **kwargs):
        jsa = build(*args, **kwargs)
        amplitude.append(weakref.ref(jsa.amplitude))
        return jsa

    def first_checksum(path):
        if not dead:
            dead.append(amplitude[0]() is None)
        return sha256(path)

    with mock.patch.object(cli, "build_jsa", build_jsa), \
            mock.patch.object(cli, "_sha256", first_checksum):
        assert main(["jsa", "--dump-grid", "--grid", "32",
                     "--gnuplot-script", "-o", str(tmp_path)]) == 0
    assert dead == [True]
    assert 'plot "jsa_marginals.csv"' in \
        (tmp_path / "jsa_marginals.gp").read_text()


@pytest.mark.parametrize("size", [0, 1, 1 << 20, (1 << 20) + 1, 3 << 20])
def test_sha256_matches_hashlib_on_both_sides_of_the_threshold(tmp_path,
                                                                size):
    assert cli._BUILTIN_SHA256_BYTES == 1 << 20
    path = tmp_path / "blob"
    path.write_bytes(np.random.default_rng(size).bytes(size))
    with mock.patch("hashlib.sha256", wraps=hashlib.sha256) as openssl:
        digest = cli._sha256(path)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert openssl.called == (size > 1 << 20)


def test_sha256_falls_back_to_hashlib_without_the_builtin(tmp_path):
    path = tmp_path / "blob"
    path.write_bytes(b"qpic")
    with mock.patch.dict(sys.modules, {"_sha2": None, "_sha256": None}), \
            mock.patch("hashlib.sha256", wraps=hashlib.sha256) as openssl:
        digest = cli._sha256(path)
    assert digest == hashlib.sha256(b"qpic").hexdigest()
    assert openssl.called


def test_only_a_large_output_loads_openssl(tmp_path):
    # a new interpreter: this module has imported hashlib itself
    probe = _run_fresh("-c", """import sys
from qpic.cli import main
for argv in (['hom', '--grid', '32', '--points', '9'], ['coupler-fit'],
             ['tuning', '--pump-points', '3'],
             ['jsa', '--dump-grid', '--grid', '256']):  # a 4.9 MB dump
    code = main([*argv, '-o', argv[0]])
    print(argv[0], code, '_hashlib' in sys.modules)""", cwd=tmp_path)
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.split("\n")[:4] == [
        "hom 0 False", "coupler-fit 0 False", "tuning 0 False", "jsa 0 True"]


CONTRACT_CASES = {
    "tuning": ["--tmin", "24", "--tmax", "25", "--pump-points", "3"],
    "jsa": ["--grid", "32", "--dump-grid"],
    "hom": ["--grid", "32", "--points", "9"],
    "sweep": ["--element", "bs", "--grid", "32", "--points", "9",
              "--fractions", "0,1", "--full-scans"],
    "temp-scan": ["--grid", "32", "--points", "5", "--temperatures",
                  "24.0,25.0"],
    "pc-window": ["--points", "101"],
    "switch-map": ["--points", "9"],
    "coupler-fit": [],
}


@pytest.mark.parametrize("command,gnuplot", [
    (command, gnuplot) for command in sorted(CONTRACT_CASES)
    for gnuplot in (False, True)
    if not (gnuplot and command == "coupler-fit")])  # it has nothing to plot
def test_output_contract(tmp_path, command, gnuplot):
    argv = [command, *CONTRACT_CASES[command]]
    code, out = run(tmp_path, *argv, *(["--gnuplot-script"] if gnuplot
                                       else []))
    assert code == 0
    manifest_name = command.replace("-", "_") + "_manifest.json"
    manifest = _strict_json((out / manifest_name).read_text())
    listed = [o["path"] for o in manifest["outputs"]]
    for entry in manifest["outputs"]:
        blob = (out / entry["path"]).read_bytes()
        assert entry["sha256"] == hashlib.sha256(blob).hexdigest()
    assert sorted(os.listdir(out)) == sorted([*listed, manifest_name])
    scripts = [p for p in listed if p.endswith(".gp")]
    if not gnuplot:
        assert not scripts
        return
    first = Path(listed[0]).stem
    assert scripts == [f"{first}.gp"]
    assert f'plot "{first}.csv"' in (out / scripts[0]).read_text()


def _netlist_with_material(tmp_path, netlist_edit, material_edit):
    """A copy of the bundled netlist and material in ``tmp_path``, each
    with one (old, new) replacement, and the material's path."""
    data = Path(qpic.__path__[0]) / "data"
    material = tmp_path / "bad.material"
    material.write_text(
        (data / "linbo3.material").read_text().replace(*material_edit))
    netlist = tmp_path / "hot.net"
    netlist.write_text((data / "ideal_chip.net").read_text().replace(
        "file = linbo3.material", "file = bad.material").replace(
        *netlist_edit))
    return netlist, material


def test_netlist_error_names_the_netlist(tmp_path, capsys):
    netlist, _ = _netlist_with_material(
        tmp_path, ("temperature = 24.5", "temperature = 500"), ("", ""))
    assert main(["hom", "--netlist", str(netlist), "-o",
                 str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"error: {netlist}: line 8: temperature 500.0 C outside validity "
        f"range [0.0, 200.0] C\n")


def test_material_error_names_only_the_material(tmp_path, capsys):
    netlist, material = _netlist_with_material(
        tmp_path, ("", ""), ("edwards-lawrence-1984", "no-such-form"))
    assert main(["hom", "--netlist", str(netlist), "-o",
                 str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {material}: line 7: unknown Sellmeier "
                          f"form 'no-such-form'")
    assert str(netlist) not in err


def _netlist_without_pc(tmp_path):
    """The bundled chip without its pc."""
    text = (Path(qpic.__path__[0]) / "data" / "ideal_chip.net").read_text()
    blocks = text.replace("file = linbo3.material\n", "").split("\n\n")
    netlist = tmp_path / "no_pc.net"
    netlist.write_text("\n\n".join(b for b in blocks
                                    if not b.startswith("element pc")))
    return netlist


def test_temp_scan_without_converter(tmp_path, capsys):
    # the scan has nothing to read the converter window from
    netlist = _netlist_without_pc(tmp_path)
    out = tmp_path / "out"
    assert main(["temp-scan", "--netlist", str(netlist), "--grid", "32",
                 "--points", "3", "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: circuit has no 'pc' element\n"
    assert not out.exists()


def test_pc_override_without_converter(tmp_path, capsys):
    netlist = _netlist_without_pc(tmp_path)
    out = tmp_path / "out"
    assert main(["hom", "--netlist", str(netlist), "--pc-length", "2000",
                 "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: circuit has no 'pc' element\n"
    assert not out.exists()


@pytest.mark.parametrize("what, argv", [
    ("netlist", ["hom", "--netlist"]),
    ("material file", ["tuning", "--material"]),
    ("ratio table", ["coupler-fit", "--te"]),
], ids=["netlist", "material", "ratio-table"])
def test_missing_input_has_the_reader_message(tmp_path, capsys, what, argv):
    # one message for a missing file, the library's, not a second CLI one
    path = tmp_path / "missing"
    out = tmp_path / "out"
    assert main([*argv, str(path), "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: cannot read {what} {path}: ")
    assert not out.exists()


def test_choices_are_the_library_vocabulary():
    parser = cli._build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices

    def choices(command, dest):
        return next(tuple(a.choices) for a in commands[command]._actions
                    if a.dest == dest)

    for command in ("hom", "sweep", "temp-scan"):
        assert choices(command, "pol") == QUERIES
    assert choices("sweep", "element") == IMPERFECTION_TARGETS


def test_exit_code_numerical(tmp_path):
    # no phase-matched root for a wildly wrong poling period
    assert main(["tuning", "--poling", "5.0", "-o", str(tmp_path)]) == 3


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


def test_pol_option(tmp_path):
    code, out = run(tmp_path, "hom", "--grid", "64", "--points", "9",
                    "--pol", "insensitive")
    assert code == 0
    manifest = json.loads((out / "hom_manifest.json").read_text())
    # without polarisation selection the baseline sits near 1/2 but the
    # scan still dips
    assert manifest["summary"]["baseline"] == pytest.approx(0.5, abs=0.02)


def test_dead_worker_exits_three(tmp_path, monkeypatch, capsys):
    # a worker killed before it sends its results (a signal, the OOM
    # killer) is a numerical failure: exit 3, and nothing written
    caller, build = os.getpid(), qpic.source.build_jsa

    def die_in_child(*args, **kwargs):
        if os.getpid() != caller:
            os._exit(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(qpic.detection, "build_jsa", die_in_child)
    code, out = run(tmp_path, "temp-scan", "--grid", "32", "--points", "3",
                    "--temperatures", "24,25")
    assert code == 3
    assert re.fullmatch(r"numerical error: worker process \d+ ended without "
                        r"its results\n", capsys.readouterr().err)
    assert not out.exists()


# each override against the same command without it: the manifest echoes
# the value, and exactly the named tables change
OVERRIDES = [
    (["jsa", "--grid", "32"], "--tau", 2.0, "tau", {"jsa_marginals"}),
    (["jsa", "--grid", "32"], "--pump", 0.7755, "pump", {"jsa_marginals"}),
    (["jsa", "--grid", "32"], "--pdc-length", 10000.0, "pdc_length",
     {"jsa_marginals"}),
    (["hom", "--grid", "32", "--points", "9"], "--pc-kappa", 1e-4,
     "pc_kappa", {"hom_scan"}),
    (["pc-window"], "--kappa", 1e-4, "kappa", {"pc_window"}),
    (["pc-window"], "--voltage", 12.0, "voltage", {"pc_window"}),
    (["switch-map", "--points", "21"], "--dbeta-per-volt", 4e-5,
     "dbeta_per_volt", {"switch_map"}),
    (["tuning", "--pump-points", "5"], "--pump-temperature", 30.0,
     "pump_temperature", {"tuning_pump"}),
]


@pytest.mark.parametrize("argv, option, value, key, changed", OVERRIDES,
                         ids=[f"{a[0]}{o}" for a, o, *_ in OVERRIDES])
def test_option_overrides(tmp_path, argv, option, value, key, changed):
    code, base = run(tmp_path / "base", *argv)
    assert code == 0
    code, out = run(tmp_path / "override", *argv, option, str(value))
    assert code == 0
    command = argv[0].replace("-", "_")
    manifest = json.loads((out / f"{command}_manifest.json").read_text())
    assert manifest["config"][key] == value
    tables = {p.stem for p in base.glob("*.csv")}
    assert tables == {p.stem for p in out.glob("*.csv")}
    assert {t for t in tables if (base / f"{t}.csv").read_bytes()
            != (out / f"{t}.csv").read_bytes()} == changed
    if command == "pc_window":
        assert manifest["summary"]["kappa_rad_um"] == (
            value if option == "--kappa" else qpic.pc_kappa(value))



# ROADMAP M's search: argv drawn per option from pools of edge values, a
# few options at a time. A count of 2^24 passes the ceiling, so it is drawn
# only where a product refuses it: the switch map's and the tuning pumps'
# root scans (2^24 x 401 samples). 2^24 delays or window points would run
# in full (a 2^24-point window alone needs ~1.2 GB).
_COUNTS = [0, 1, 2, 3, 1 << 24, (1 << 24) + 1, 10 ** 9]
_FEW = [c for c in _COUNTS if c != 1 << 24]
_FLOATS = ["1e308", "-1e308", "5e-324", "1e-15", "-0.0", "-1.5e3"]
_CHIP = dict.fromkeys(["--temperature", "--tau", "--pump", "--poling",
                       "--pdc-length", "--pc-length", "--pc-kappa"], _FLOATS)
_SCAN = {**_CHIP, "--lmin": _FLOATS, "--lmax": _FLOATS,
         "--points": [0, 1, 2, 3, 5], "--pol": QUERIES}
# per command: its fixed argv and the pool of each option ([None]: a flag)
_SEARCH = {
    "tuning": ([], {**dict.fromkeys(
        ["--poling", "--tmin", "--tmax", "--tstep", "--pump-min", "--pump-max",
         "--pump-temperature"], _FLOATS), "--pump-points": _COUNTS}),
    "jsa": (["--grid", "16"], {**_CHIP, "--dump-grid": [None]}),
    "hom": (["--grid", "16", "--points", "5"], _SCAN),
    "sweep": (["--grid", "16", "--points", "3", "--element", "pbs"],
              {**_SCAN, "--element": IMPERFECTION_TARGETS,
               "--fractions": ["0,1", ",", "1e308", "-0.0,5e-324"]}),
    # an empty --temperatures falls back to --tmin, --tmax and --tstep
    "temp-scan": (["--grid", "16", "--points", "3", "--temperatures", "24"],
                  {**_SCAN, "--tmin": _FLOATS, "--tmax": _FLOATS,
                   "--tstep": _FLOATS, "--temperatures": ["", "1e308,-0.0"]}),
    "pc-window": ([], {**dict.fromkeys(
        ["--poling", "--length", "--kappa", "--voltage", "--temperature",
         "--lmin", "--lmax"], _FLOATS), "--points": _FEW}),
    "switch-map": ([], {**dict.fromkeys(
        ["--kappa-c", "--half-length", "--umin", "--umax", "--dbeta-per-volt"],
        _FLOATS), "--points": _COUNTS}),
    "coupler-fit": ([], {"--length": _FLOATS}),
}


@st.composite
def _argv(draw, command):
    fixed, pools = _SEARCH[command]
    argv = [command, *fixed]
    for option in draw(st.lists(st.sampled_from(sorted(pools)), max_size=3,
                                unique=True)):
        value = draw(st.sampled_from(pools[option]))
        # joined by "=", as a value such as -1.5e3 must be (README)
        argv.append(option if value is None else f"{option}={value}")
    return argv


@pytest.mark.parametrize("command", list(_SEARCH))
@given(data=st.data())
@settings(max_examples=60)
def test_any_argv_exits_0_2_or_3(command, data):
    # no overflow on any exit, as the suite's filter demands of every
    # kernel: an input whose arithmetic overflows is refused before that
    argv = data.draw(_argv(command))
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(os, "sched_getaffinity", lambda pid: {0}), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        out = Path(tmp) / "out"
        try:
            code = main([*argv, "-o", str(out)])
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        assert code in (0, 2, 3)
        assert not [w for w in caught if w.category is RuntimeWarning]
        if code:
            assert not out.exists()
        else:
            _strict_json((out / f"{command.replace('-', '_')}_manifest.json")
                         .read_text())
