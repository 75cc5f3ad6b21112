"""Benchmark workloads and the check of their outputs.

``commands(workload, seed)`` expands a workload and seed into the qpic
command lines of one run (the harness adds ``-o DIR``). Seed 0 gives the
named inputs; other seeds move only the delay window of ``hom`` and the
temperature list of ``temp_scan``, drawn from fixed sets whose outputs were
stored from the seed commit under ``reference/``. ``short_cmds`` takes no
seeded input.

``check(...)`` compares a run's outputs with those references: first each
output file's SHA-256 (after confirming the manifest lists the file's real
hash), then, on a mismatch, the values themselves within the tolerances
below. Large files are compared on every row of a fixed stride plus
whole-column sums.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from pathlib import Path

WORKLOADS = ("hom", "temp_scan", "short_cmds")
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# hom: the default 105-point window, -1500..3700 um (50 um step), shifted by
# a whole number of steps so every delay stays on the reference grid.
HOM_STEP_UM = 50.0
HOM_SHIFTS = tuple(range(-4, 5))

# temp_scan: four temperatures around degeneracy (24.5 C), five delays each, so
# the per-temperature rebuild outweighs the delay kernel.
TEMP_NAMED = (23.0, 24.0, 25.0, 26.0)
TEMP_POOL = tuple(21.0 + 0.5 * i for i in range(15))  # 21.0 .. 28.0 C
TEMP_DELAYS = ("--lmin", "-1500", "--lmax", "3700", "--points", "5")

SHORT_CMDS = (("tuning", "--pump-points", "31"), ("jsa", "--dump-grid"),
              ("pc-window",), ("switch-map",), ("coupler-fit",))

# Self-check scale: same commands on a 32x32 grid with few delays.
SMALL = {
    "hom": (("hom", "--grid", "32", "--points", "9"),),
    "temp_scan": (("temp-scan", "--pol", "insensitive", "--temperatures",
                   "24.0,25.0", "--points", "5", "--grid", "32"),),
    "short_cmds": (("tuning", "--pump-points", "3", "--tmin", "24",
                    "--tmax", "25"), ("jsa", "--dump-grid", "--grid", "32"),
                   ("pc-window", "--points", "101"),
                   ("switch-map", "--points", "9"), ("coupler-fit",)),
}

SAMPLED_ROWS = 1000  # files with more rows are compared on a stride

# Absolute tolerances of named values, before the printing resolution below.
# Probabilities and JSA values must agree within 1e-12 absolute.
ABS_TOL = {
    "coincidence_probability": 1e-12, "re_amplitude": 1e-12,
    "im_amplitude": 1e-12, "minimum": 1e-12, "maximum": 1e-12,
    "baseline": 1e-12, "visibility": 1e-10, "best_visibility": 1e-10,
    "dip_position_um": 1e-6, "dip_fwhm_um": 1e-6,
    "signal_wavelength_um": 1e-9, "idler_wavelength_um": 1e-9,
    "degenerate_wavelength_um": 1e-9,
}
PRINT_REL = 1e-11  # CSV values carry 12 significant digits
DEFAULT_ABS, DEFAULT_REL = 1e-12, 1e-9  # any other value


def _hom(shift: int):
    lmin = -1500.0 + HOM_STEP_UM * shift
    lmax = 3700.0 + HOM_STEP_UM * shift
    return ("hom", "--lmin", f"{lmin:.1f}", "--lmax", f"{lmax:.1f}",
            "--points", "105")


def _temp_scan(temperatures):
    return ("temp-scan", "--pol", "insensitive", "--temperatures",
            ",".join(f"{t:.1f}" for t in temperatures), *TEMP_DELAYS)


def commands(workload: str, seed: int, small: bool = False):
    """The qpic argument lists of one run, in the order they execute."""
    if small:
        return [list(a) for a in SMALL[workload]]
    rng = random.Random(seed)
    if workload == "hom":
        return [list(_hom(0 if seed == 0 else rng.choice(HOM_SHIFTS)))]
    if workload == "temp_scan":
        temps = TEMP_NAMED if seed == 0 else \
            sorted(rng.sample(TEMP_POOL, len(TEMP_NAMED)))
        return [list(_temp_scan(temps))]
    if workload == "short_cmds":
        return [list(a) for a in SHORT_CMDS]
    raise ValueError(f"unknown workload {workload!r}")


def reference_commands(workload: str, small: bool = False):
    """Every command whose outputs the reference stores."""
    if small:
        return [list(a) for a in SMALL[workload]]
    if workload == "hom":
        return [list(_hom(s)) for s in HOM_SHIFTS]
    if workload == "temp_scan":
        return [list(_temp_scan(TEMP_NAMED)), list(_temp_scan(TEMP_POOL))]
    return commands(workload, 0)


def reference_path(workload: str, small: bool = False) -> Path:
    return REFERENCE_DIR / (f"small_{workload}.json" if small
                            else f"{workload}.json")


def key(argv) -> str:
    return " ".join(argv)


def manifest_path(outdir: Path, argv) -> Path:
    return outdir / (argv[0].replace("-", "_") + "_manifest.json")


# ---------------------------------------------------------------------------
# file records

def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _value(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _read_table(path: Path):
    """Header and rows of a CSV, or of a ``key = value`` text file."""
    with open(path, newline="", encoding="utf-8") as fh:
        if path.suffix == ".csv":
            rows = list(csv.reader(fh))
            return rows[0], [[_value(v) for v in r] for r in rows[1:]]
        pairs = [line.split("=", 1) for line in fh if "=" in line]
    return ([k.strip() for k, _ in pairs],
            [[_value(v.strip()) for _, v in pairs]])


def _stride(n_rows: int) -> int:
    if n_rows <= SAMPLED_ROWS:
        return 1
    stride = n_rows // SAMPLED_ROWS + 1
    return stride + 1 - stride % 2  # odd: walks across a power-of-two grid


def _sums(header, rows):
    sums = {}
    for j, name in enumerate(header):
        column = [r[j] for r in rows]
        if all(isinstance(v, float) for v in column):
            sums[name] = [sum(column), sum(abs(v) for v in column)]
    return sums


def table_record(header, rows, digest=None) -> dict:
    stride = _stride(len(rows))
    return {"sha256": digest, "header": header, "rows": len(rows),
            "stride": stride, "sample": rows[::stride],
            "sums": _sums(header, rows)}


def file_record(path: Path) -> dict:
    header, rows = _read_table(path)
    return table_record(header, rows, sha256(path))


def case_record(outdir: Path, argv) -> dict:
    """What the reference keeps of one command's outputs."""
    manifest = json.loads(manifest_path(outdir, argv).read_text())
    return {"summary": manifest["summary"],
            "outputs": {o["path"]: file_record(outdir / o["path"])
                        for o in manifest["outputs"]}}


def load_reference(workload: str, small: bool = False) -> dict:
    return json.loads(reference_path(workload, small).read_text())


def _expected(reference: dict, argv):
    """Reference case for ``argv``: stored as is, or, for a temperature
    list drawn from the pool, assembled from the pool run's rows."""
    cases = reference["cases"]
    if key(argv) in cases:
        return cases[key(argv)]
    pool = cases.get(key(_temp_scan(TEMP_POOL)))
    if argv[0] != "temp-scan" or pool is None:
        return None
    temps = [float(t) for t in argv[argv.index("--temperatures") + 1]
             .split(",")]
    if key(argv) != key(_temp_scan(temps)):
        return None
    table = pool["outputs"]["temp_scan.csv"]
    by_temp = {row[0]: row for row in table["sample"]}
    if not set(temps) <= set(by_temp):
        return None
    rows = [by_temp[t] for t in temps]
    best = max(rows, key=lambda r: r[1])  # first maximum, as qpic picks
    return {"summary": {"best_temperature_c": best[0],
                        "best_visibility": best[1]},
            "outputs": {"temp_scan.csv": table_record(table["header"],
                                                      rows)}}


# ---------------------------------------------------------------------------
# comparison

def _tolerance(name: str, scale: float, n: int = 1) -> float:
    """Allowed difference for ``n`` summed values of magnitude ``scale``."""
    if name in ABS_TOL:
        return ABS_TOL[name] * n + PRINT_REL * scale
    return DEFAULT_ABS * n + DEFAULT_REL * scale


def _close(name: str, got, want) -> bool:
    if isinstance(want, list) and isinstance(got, list):
        return len(got) == len(want) and all(
            _close(name, g, w) for g, w in zip(got, want))
    numeric = (int, float)
    if isinstance(want, bool) or isinstance(got, bool) \
            or not isinstance(want, numeric) \
            or not isinstance(got, numeric):
        return got == want
    return abs(got - want) <= _tolerance(name, abs(want))


def _compare_table(label, path: Path, want: dict, problems: list):
    header, rows = _read_table(path)
    if header != want["header"] or len(rows) != want["rows"] \
            or any(len(r) != len(header) for r in rows):
        problems.append(f"{label}: header or table shape differs")
        return
    for i, (got_row, want_row) in enumerate(
            zip(rows[::want["stride"]], want["sample"])):
        for name, g, w in zip(header, got_row, want_row):
            if not _close(name, g, w):
                problems.append(f"{label}: row {i * want['stride']} "
                                f"{name} = {g!r}, reference {w!r}")
                return
    for name, (total, abs_total) in want["sums"].items():
        column = [r[header.index(name)] for r in rows]
        got = sum(column) if all(isinstance(v, float) for v in column) \
            else None
        if got is None or \
                not abs(got - total) <= _tolerance(name, abs_total, len(rows)):
            problems.append(f"{label}: column {name} sums to {got!r}, "
                            f"reference {total!r}")
            return


def check(outdir: Path, argvs, reference: dict) -> list:
    """Problems found in one run's outputs; empty when they match."""
    problems = []
    for argv in argvs:
        label = argv[0]
        want = _expected(reference, argv)
        if want is None:
            problems.append(f"{label}: no reference for {key(argv)!r}")
            continue
        path = manifest_path(outdir, argv)
        try:
            manifest = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            problems.append(f"{label}: unreadable manifest ({exc})")
            continue
        listed = {o["path"]: o["sha256"] for o in manifest["outputs"]}
        if set(listed) != set(want["outputs"]):
            problems.append(f"{label}: outputs {sorted(listed)}, reference "
                            f"{sorted(want['outputs'])}")
            continue
        for name, record in want["outputs"].items():
            digest = sha256(outdir / name)
            if digest != listed[name]:
                problems.append(f"{label}: {name} does not match the hash "
                                f"its manifest lists")
            elif digest != record["sha256"]:
                _compare_table(f"{label}: {name}", outdir / name, record,
                               problems)
        got, ref = manifest["summary"], want["summary"]
        for name in sorted(set(got) | set(ref)):
            if name not in got or name not in ref or \
                    not _close(name, got[name], ref[name]):
                problems.append(f"{label}: summary {name} = "
                                f"{got.get(name)!r}, reference "
                                f"{ref.get(name)!r}")
    return problems
