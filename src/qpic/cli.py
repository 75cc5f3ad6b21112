"""Command line interface.

Each ``cmd_*`` function passes its options to the library, which checks
them (a command checks only what numpy or a division meets first), and
returns an ``Artifacts``: its tables as ``(name, header, columns)``, a
result summary, the input files it read and the axis labels of its plot.
Only ``_emit`` writes. It creates the output directory, writes every
table as ``<name>.csv`` (RFC 4180, CRLF, 12 significant digits), the
gnuplot script of the first table when ``--gnuplot-script`` is given,
``coupler_fit.txt`` for a coupler fit, and last the strict-JSON manifest
(inputs with checksums, a bundled one as ``qpic/data/<name>``, package
versions, a configuration echo and the summary). An invalid input
therefore leaves no file behind. Exit codes: 0 success, 2 invalid input,
3 numerical failure.

A CSV float is written byte for byte as ``'%.11e' % v``, but assembled in
numpy: its 12 digits are rint(m) for m = |v| 10**(11 - e), e =
floor(log10|v|). m is off the exact value by less than 2.3e-4, so where
m is more than 5e-3 from a rounding tie, rint(m) is the correctly rounded
significand that ``%`` prints. Values nearer a tie, and those that are
zero, non-finite, subnormal or have |e| >= 100, are formatted by ``%``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc
import io
import json
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .circuit import CircuitSpec, parse_netlist
from .cmt import CouplerFit, fit_coupler, pbs_angles, pc_window, \
    save_coupler_fit, splitting_ratio, switch_map
from .detection import (DEFAULT_DELAY_SPAN, IMPERFECTION_TARGETS, QUERIES,
                        hom_scan, imperfection_sweep, scan_grid,
                        temperature_scan)
from .dispersion import (DATA_DIR, MaterialModel, default_material,
                         degenerate_wavelength, load_material, tuning_curve)
from .elements import pc_kappa
from .errors import NumericalError, QpicError, RangeError, ValidationError
from .keyfile import read_text
from .source import (GridSpec, build_jsa, jsa_exchange_asymmetry,
                     marginal_spectra)

_CHUNK_ROWS = 8192  # rows formatted per write


def _digit_table(width: int) -> np.ndarray:
    """The ``width``-digit strings of 0 ... 10**width - 1, as S<width>."""
    digits = np.indices((10,) * width, np.uint8).reshape(width, -1).T
    return np.ascontiguousarray(digits + ord("0")).view(f"S{width}").ravel()


@functools.cache
def _float_tables():
    """What ``_float_fields`` looks up, built on its first call: built on
    import, it raised the peak RSS of commands that write small tables.

    10**(11 - e) for e = -99 ... 99, each correctly rounded (float() of a
    decimal literal), at index e + 99; the "e+XX" text of the same e; the
    digit groups by width; and a fast field: sign, d, ".", then the other
    11 digits in groups of 3, 4 and 4, and the exponent.
    """
    scale = np.array([float(f"1e{11 - e}") for e in range(-99, 100)])
    exponent = np.array([b"e%+03d" % e for e in range(-99, 100)])
    digits = {n: _digit_table(n) for n in (1, 3, 4)}
    field = np.dtype([("sign", "S1"), ("lead", "S1"), ("point", "S1"),
                      ("d3", "S3"), ("d4", "S4"), ("d4_", "S4"),
                      ("exp", "S4")])
    return scale, exponent, digits, field


# largest |m - rint(m)| of a fast field; 20x the error bound of m
_ROUNDING_MARGIN = 0.5 - 5e-3


class Artifacts(NamedTuple):
    """What a subcommand produced, for ``_emit`` to write."""

    tables: list  # (file stem, header, columns); the first one is plotted
    summary: dict
    inputs: list
    plot: tuple = ()  # (xlabel, ylabel, gnuplot "using") of the first table
    fit: CouplerFit | None = None


def _csv_field(text: str) -> str:
    """``text`` quoted as ``csv.writer`` quotes a field (QUOTE_MINIMAL)."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _float_fields(values: np.ndarray) -> np.ndarray:
    """``'%.11e' % v`` of each value, as the rows of a NUL-padded uint8
    matrix of 18 or more columns.

    With e = floor(log10|v|) and m = |v| 10**(11 - e), the digits are
    rint(m). m is one product with a correctly rounded power of ten, so it
    is off the exact value by less than 2.3e-4 while m < 1e12. A value
    whose m lies in [1e11 + 1, 1e12 - 1) and within 0.495 of an integer
    therefore rounds to that integer exactly, as Python's correctly
    rounded ``%`` does, and a log10 off by one only moves m out of that
    range. Any other value (zero, non-finite, subnormal, |e| >= 100, or
    m near a tie) is formatted by ``%`` into a field widened to fit it.
    """
    scale, exponent, digits, field_type = _float_tables()
    x = values.astype(np.float64, copy=False)
    a = np.abs(x)
    with np.errstate(divide="ignore"):  # log10(0)
        e = np.floor(np.log10(a))
    fast = np.abs(e) < 100  # False for 0, subnormals, NaN and inf
    e = np.where(fast, e, 0.0).astype(np.intp) + 99
    m = np.where(fast, a, 1.0) * scale[e]
    r = np.rint(m)
    fast &= ((m >= 1e11 + 1) & (m < 1e12 - 1)
             & (np.abs(m - r) <= _ROUNDING_MARGIN))
    r[~fast] = 0.0  # m of 13 digits would overrun the lead table
    field = np.empty(len(x), field_type)
    field["sign"] = np.where(np.signbit(x), b"-", b"")
    field["point"] = b"."
    field["exp"] = exponent[e]
    # each quotient of r < 2**52 by a power of ten is floored exactly
    for name, size, unit in [("lead", 1, 1e11), ("d3", 3, 1e8),
                             ("d4", 4, 1e4), ("d4_", 4, 1.0)]:
        group = np.floor(r / unit)
        r -= group * unit
        field[name] = digits[size][group.astype(np.intp)]
    out = field.view(np.uint8).reshape(len(x), field_type.itemsize)
    slow = np.flatnonzero(~fast)
    if len(slow):
        text = np.array([b"%.11e" % v for v in x[slow].tolist()])
        width = text.dtype.itemsize
        if width > out.shape[1]:
            out = np.pad(out, [(0, 0), (0, width - out.shape[1])])
        out[slow] = 0
        out[slow, :width] = text.view(np.uint8).reshape(len(slow), width)
    return out


def _bool_fields(values: np.ndarray) -> np.ndarray:
    return (values.astype(np.uint8) + ord("0"))[:, None]


def _str_fields(values: np.ndarray) -> np.ndarray:
    text = np.array([_csv_field(s).encode() for s in values.tolist()])
    return text.view(np.uint8).reshape(len(values), text.dtype.itemsize)


_FIELDS = {"f": _float_fields, "b": _bool_fields, "U": _str_fields}


def _fields(block: np.ndarray) -> np.ndarray:
    """``block``'s fields on a last axis, formatted once along stride 0."""
    once = block[tuple(slice(None) if stride else slice(0, 1)
                       for stride in block.strides)]
    fields = _FIELDS[block.dtype.kind](once.ravel())
    return np.broadcast_to(fields.reshape(*once.shape, fields.shape[1]),
                           (*block.shape, fields.shape[1]))


def _write_columns(path: Path, header, columns) -> None:
    """Write one CSV table from column arrays of one shape, a row per
    element in C order: a float as ``%.11e`` writes it, a bool as 0 or 1,
    a str in its ``_csv_field`` quoting. Blocks of leading rows, of at
    most ``_CHUNK_ROWS`` elements or one row, are written one at a time:
    each column becomes an array of UTF-8 fields padded with NUL (a
    stride-0 axis formatted once), the arrays are joined with the commas
    and CRLFs, and one mask drops the padding. So no str cell may hold a
    NUL.
    """
    columns = [np.asarray(c) for c in columns]
    shape = columns[0].shape
    step = max(1, _CHUNK_ROWS // math.prod(shape[1:]))
    with open(path, "wb") as fh:
        fh.write((",".join(map(_csv_field, header)) + "\r\n").encode())
        for start in range(0, shape[0], step):
            fields = [_fields(c[start:start + step]) for c in columns]
            comma, crlf = (np.broadcast_to(np.frombuffer(s, np.uint8),
                                           (*fields[0].shape[:-1], len(s)))
                           for s in (b",", b"\r\n"))
            rows = np.concatenate(
                [part for f in fields for part in (f, comma)][:-1] + [crlf],
                axis=-1)
            fh.write(rows[rows != 0].tobytes())


def _sha256(path: Path) -> str:
    import hashlib  # loaded after the work: OpenSSL is ~3.5 MB of RSS
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _jsonable(value):
    """``value`` as JSON types; a non-finite float is a numerical failure."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        raise NumericalError(f"non-finite result {value}")
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _emit(args, artifacts: Artifacts) -> None:
    """Write every artifact of a run into ``--output-dir``, manifest last."""
    config = _jsonable({k: v for k, v in vars(args).items() if k != "func"})
    summary = _jsonable(artifacts.summary)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for name, header, columns in artifacts.tables:
        outputs.append(outdir / f"{name}.csv")
        _write_columns(outputs[-1], header, columns)
    if getattr(args, "gnuplot_script", False):
        name = artifacts.tables[0][0]
        xlabel, ylabel, using = artifacts.plot
        outputs.append(outdir / f"{name}.gp")
        outputs[-1].write_text("\n".join([
            'set datafile separator ","',
            "set key off",
            f'set xlabel "{xlabel}"',
            f'set ylabel "{ylabel}"',
            f'plot "{name}.csv" skip 1 using {using} with lines',
            "pause -1",
        ]) + "\n", encoding="utf-8")
    if artifacts.fit is not None:
        outputs.append(outdir / "coupler_fit.txt")
        save_coupler_fit(artifacts.fit, outputs[-1])
    manifest = {
        "command": args.command,
        "config": config,
        "inputs": [{"path": f"qpic/data/{p.name}" if p == DATA_DIR / p.name
                    else str(p), "sha256": _sha256(p)}
                   for p in artifacts.inputs],
        "outputs": [{"path": p.name, "sha256": _sha256(p)} for p in outputs],
        "summary": summary,
        "versions": {
            "package": __version__,
            "numpy": np.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
    }
    path = outdir / (args.command.replace("-", "_") + "_manifest.json")
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True,
                               allow_nan=False) + "\n", encoding="utf-8")


def _finite(text: str) -> float:
    """argparse type of every float option: a finite number."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _float_list(text: str, option: str) -> list[float]:
    """The finite numbers of a comma separated option, at least one."""
    try:
        values = [_finite(v) for v in text.split(",") if v != ""]
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ValidationError(f"bad {option} value: {exc}") from exc
    if not values:
        raise ValidationError(f"{option} must list at least one value")
    return values


def _input_path(value, bundled: str) -> Path:
    """The file an option names, or the bundled default."""
    if not value:
        return DATA_DIR / bundled
    return Path(value)


def _load_model(args) -> tuple[MaterialModel, list]:
    path = _input_path(args.material, "linbo3.material")
    return (load_material(path) if args.material else default_material(),
            [path])


def _load_chip(args) -> tuple[CircuitSpec, Path]:
    path = _input_path(args.netlist, "ideal_chip.net")
    spec = parse_netlist(path)
    if args.temperature is not None:
        spec = spec.at_temperature(args.temperature)
    if spec.source is None:
        raise ValidationError(
            f"netlist {path} has no [source] section; this command needs "
            f"the photon-pair source")
    overrides = {"pulse_duration": args.tau, "pump_wavelength": args.pump,
                 "pdc_length": args.pdc_length, "poling_period": args.poling}
    spec = replace(spec, source=replace(spec.source, **{
        k: v for k, v in overrides.items() if v is not None}))

    updates = {}
    if args.pc_length is not None:
        if not args.pc_length > 0.0:
            raise ValidationError(
                f"--pc-length must be > 0 um, got {args.pc_length}")
        updates["length"] = args.pc_length
        updates["kappa"] = np.pi / (2.0 * args.pc_length)
    if args.pc_kappa is not None:
        updates["kappa"] = args.pc_kappa
    if updates:
        spec = spec.with_params("pc", **updates)
    return spec, path


def _temperatures_from(args) -> np.ndarray:
    if args.tstep <= 0:
        raise ValidationError(f"--tstep must be > 0, got {args.tstep}")
    if not args.tmax >= args.tmin:
        raise ValidationError("--tmax must not be below --tmin")
    return np.arange(args.tmin, args.tmax + args.tstep / 2.0, args.tstep)


def _delays_from(args) -> np.ndarray:
    if args.points < 3:
        raise ValidationError(f"--points must be >= 3, got {args.points}")
    if not args.lmax > args.lmin:
        raise ValidationError("--lmax must be greater than --lmin")
    return np.linspace(args.lmin, args.lmax, args.points)


# ---------------------------------------------------------------------------
# subcommands

def cmd_tuning(args) -> Artifacts:
    model, inputs = _load_model(args)
    temps = _temperatures_from(args)
    if args.pump_points and args.pump_points < 2:
        raise ValidationError("--pump-points must be >= 2")
    lams = np.array([degenerate_wavelength(model, args.poling, float(t))
                     for t in temps])
    tables = [("tuning_temperature",
               ["temperature_c", "degenerate_wavelength_um"], [temps, lams])]
    # one temperature leaves the slope undefined: null, like dip_fwhm_um
    slope = float(np.polyfit(temps, lams, 1)[0]) if len(temps) > 1 else None
    summary = {"degeneracy_slope_um_per_c": slope,
               "n_temperatures": len(temps)}

    if args.pump_points:
        pumps = np.linspace(args.pump_min, args.pump_max, args.pump_points)
        curve = tuning_curve(model, args.poling, args.pump_temperature, pumps)
        tables.append(("tuning_pump",
                       ["pump_wavelength_um", "signal_wavelength_um",
                        "idler_wavelength_um"],
                       [curve.pump, curve.signal, curve.idler]))
        summary["pump_points_omitted"] = list(curve.omitted)
    return Artifacts(tables, summary, inputs,
                     ("temperature (C)", "degenerate wavelength (um)", "1:2"))


def cmd_jsa(args) -> Artifacts:
    spec, netlist = _load_chip(args)
    jsa = build_jsa(spec.model, spec.source, GridSpec(args.grid, args.grid),
                    temperature=spec.temperature)
    marginals = marginal_spectra(jsa)
    signal, idler = marginals.signal, marginals.idler
    photon = np.repeat(["signal", "idler"],
                       [len(signal.omega), len(idler.omega)])
    tables = [("jsa_marginals",
               ["photon", "wavelength_um", "omega_rad_ps", "density",
                "intensity"],
               [photon, *(np.concatenate([getattr(signal, f),
                                          getattr(idler, f)])
                          for f in ("wavelength", "omega", "density",
                                    "intensity"))])]
    summary = {
        "exchange_asymmetry": jsa_exchange_asymmetry(jsa),
        "normalization": jsa.normalization,
        "ridge_offset_rad_ps": jsa.ridge_offset,
        "signal_peak_um": signal.peak_wavelength,
        "idler_peak_um": idler.peak_wavelength,
        "temperature_c": spec.temperature,
    }
    if args.dump_grid:
        tables.append(("jsa_grid",
                       ["sum_rad_ps", "diff_rad_ps", "re_amplitude",
                        "im_amplitude"],
                       [*np.broadcast_arrays(jsa.sum_grid[:, None],
                                             jsa.diff_grid),
                        jsa.amplitude.real, jsa.amplitude.imag]))
    return Artifacts(tables, summary, [netlist],
                     ("wavelength (um)", "normalised intensity", "2:5"))


_SCAN_HEADER = ["delta_l_um", "coincidence_probability"]


def cmd_hom(args) -> Artifacts:
    spec, netlist = _load_chip(args)
    delays = _delays_from(args)
    jsa = build_jsa(spec.model, spec.source,
                    scan_grid(spec, delays, args.grid),
                    temperature=spec.temperature)
    scan = hom_scan(jsa, spec, delays, args.pol)
    summary = {"visibility": scan.visibility, "minimum": scan.minimum,
               "maximum": scan.maximum, "baseline": scan.baseline,
               "dip_position_um": scan.dip_position,
               "dip_fwhm_um": scan.dip_fwhm,
               "boundary_warning": scan.boundary_warning}
    return Artifacts([("hom_scan", _SCAN_HEADER,
                       [scan.values, scan.probabilities])], summary,
                     [netlist],
                     ("delay length (um)", "coincidence probability", "1:2"))


def cmd_sweep(args) -> Artifacts:
    spec, netlist = _load_chip(args)
    fractions = _float_list(args.fractions, "--fractions")
    delays = _delays_from(args)
    jsa = build_jsa(spec.model, spec.source,
                    scan_grid(spec, delays, args.grid),
                    temperature=spec.temperature)
    points = imperfection_sweep(jsa, spec, args.element, fractions, delays,
                                args.pol)
    rows = [(p.fraction, p.scan.visibility, p.scan.minimum, p.scan.maximum,
             p.scan.baseline, p.scan.dip_position) for p in points]
    tables = [("sweep_summary",
               ["fraction", "visibility", "min_probability",
                "max_probability", "baseline", "dip_position_um"],
               [np.array(c) for c in zip(*rows)])]
    if args.full_scans:
        tables += [(f"sweep_scan_{k:02d}", _SCAN_HEADER,
                    [p.scan.values, p.scan.probabilities])
                   for k, p in enumerate(points)]
    summary = {"element": args.element,
               "visibilities": [p.scan.visibility for p in points]}
    return Artifacts(tables, summary, [netlist],
                     ("imperfection fraction", "visibility", "1:2"))


def cmd_pc_window(args) -> Artifacts:
    model, inputs = _load_model(args)
    if not args.length > 0.0:
        raise RangeError(f"--length must be > 0 um, got {args.length}")
    if args.points < 3:
        raise ValidationError(f"--points must be >= 3, got {args.points}")
    kappa = args.kappa
    if args.voltage is not None:
        kappa = pc_kappa(args.voltage)
    if kappa is None:
        kappa = float(np.pi / (2.0 * args.length))
    wavelengths = None
    if args.lmin is not None or args.lmax is not None:
        if args.lmin is None or args.lmax is None or \
                not args.lmax > args.lmin:
            raise ValidationError(
                "--lmin and --lmax must both be given with lmax > lmin")
        wavelengths = np.linspace(args.lmin, args.lmax, args.points)
    window = pc_window(model, args.poling, args.length, kappa,
                       temperature=args.temperature, wavelengths=wavelengths,
                       n_points=args.points)
    summary = {
        "centre_um": window.centre,
        "fwhm_um": window.fwhm,
        "peak_fraction": float(np.max(window.fraction)),
        "kappa_rad_um": float(kappa),
    }
    return Artifacts([("pc_window", ["wavelength_um", "conversion_fraction"],
                       [window.wavelengths, window.fraction])],
                     summary, inputs,
                     ("wavelength (um)", "conversion fraction", "1:2"))


def cmd_switch_map(args) -> Artifacts:
    if args.points < 2:
        raise ValidationError(f"--points must be >= 2, got {args.points}")
    voltages = np.linspace(args.umin, args.umax, args.points)
    bar = switch_map(args.kappa_c, args.half_length, voltages, voltages,
                     args.dbeta_per_volt)
    i_min, i_max = (np.unravel_index(int(f(bar)), bar.shape)
                    for f in (np.argmin, np.argmax))
    summary = {"bar_min": bar.min(), "bar_max": bar.max(),
               "bar_min_at_v": voltages[list(i_min)].tolist(),
               "bar_max_at_v": voltages[list(i_max)].tolist()}
    return Artifacts([("switch_map", ["u1_v", "u2_v", "bar_fraction"],
                       [*np.broadcast_arrays(voltages[:, None], voltages),
                        bar])], summary, [],
                     ("U1 (V)", "U2 (V)", "1:2:3"))


def _read_ratio_csv(path: Path):
    lengths, ratios = [], []
    reader = csv.reader(io.StringIO(read_text(path, "ratio table"),
                                    newline=""))
    header = next(reader, None)
    if header is None or len(header) < 2:
        raise ValidationError(f"{path}: expected a two-column CSV")
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        try:
            lengths.append(float(row[0]))
            ratios.append(float(row[1]))
        except (ValueError, IndexError) as exc:
            raise ValidationError(f"{path}: line {lineno}: {exc}") from exc
    return np.array(lengths), np.array(ratios)


def cmd_coupler_fit(args) -> Artifacts:
    te_path = _input_path(args.te, "coupler_ratios_te.csv")
    tm_path = _input_path(args.tm, "coupler_ratios_tm.csv")
    fit = fit_coupler(*_read_ratio_csv(te_path), *_read_ratio_csv(tm_path))
    alpha, beta = pbs_angles(fit, args.length)
    summary = {
        "beat_te_um": fit.beat_te, "offset_te_um": fit.offset_te,
        "beat_tm_um": fit.beat_tm, "offset_tm_um": fit.offset_tm,
        "ratio_h": splitting_ratio(fit, args.length, "H"),
        "ratio_v": splitting_ratio(fit, args.length, "V"),
        "alpha_rad": alpha, "beta_rad": beta,
        "coupler_length_um": args.length,
    }
    return Artifacts([], summary, [te_path, tm_path], fit=fit)


def cmd_temp_scan(args) -> Artifacts:
    spec, netlist = _load_chip(args)
    temps = (_float_list(args.temperatures, "--temperatures")
             if args.temperatures else list(_temperatures_from(args)))
    delays = _delays_from(args)
    points = temperature_scan(spec, temps, delays, args.pol,
                              scan_grid(spec, delays, args.grid))
    rows = [(p.temperature, p.scan.visibility, p.scan.minimum, p.scan.baseline,
             p.scan.dip_position, p.signal_peak, p.idler_peak,
             p.window_centre, p.signal_fwhm, p.window_fwhm,
             p.outside_window) for p in points]
    table = ("temp_scan",
             ["temperature_c", "visibility", "minimum", "baseline",
              "dip_position_um", "signal_peak_um", "idler_peak_um",
              "window_centre_um", "signal_fwhm_um", "window_fwhm_um",
              "outside_window"], [np.array(c) for c in zip(*rows)])
    best = max(points, key=lambda p: p.scan.visibility)
    summary = {"best_temperature_c": best.temperature,
               "best_visibility": best.scan.visibility}
    return Artifacts([table], summary, [netlist],
                     ("temperature (C)", "visibility", "1:2"))


# ---------------------------------------------------------------------------
# parser

def _add_common(p, plots=True):
    p.add_argument("-o", "--output-dir", default=".",
                   help="directory for artifacts (default: current)")
    if plots:
        p.add_argument("--gnuplot-script", action="store_true",
                       help="also write a gnuplot script for the main CSV")


def _add_chip_options(p):
    p.add_argument("--netlist", default=None,
                   help="chip netlist (default: bundled reference chip)")
    p.add_argument("--temperature", type=_finite, default=None,
                   help="override the netlist temperature (C)")
    p.add_argument("--tau", type=_finite, default=None,
                   help="override the pump pulse duration (ps)")
    p.add_argument("--pump", type=_finite, default=None,
                   help="override the pump wavelength (um)")
    p.add_argument("--poling", type=_finite, default=None,
                   help="override the source poling period (um)")
    p.add_argument("--pdc-length", type=_finite, default=None,
                   help="override the poled source length (um)")
    p.add_argument("--pc-length", type=_finite, default=None,
                   help="override the converter length (um); kappa is "
                        "reset to pi/(2 length) unless --pc-kappa is given")
    p.add_argument("--pc-kappa", type=_finite, default=None,
                   help="override the converter coupling (rad/um)")
    p.add_argument("--grid", type=int, default=512,
                   help="difference-axis points of a scan (sum rows follow"
                        " the chip); both axes of jsa (default 512)")


def _add_scan_options(p, points_default=105):
    p.add_argument("--lmin", type=_finite, default=DEFAULT_DELAY_SPAN[0],
                   help="first delay length (um)")
    p.add_argument("--lmax", type=_finite, default=DEFAULT_DELAY_SPAN[1],
                   help="last delay length (um)")
    p.add_argument("--points", type=int, default=points_default,
                   help=f"number of delay samples (default {points_default})")
    p.add_argument("--pol", default="VV", choices=QUERIES,
                   help="detector polarisation pairing (default VV)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpic",
        description="Quantum photonic circuit simulator for periodically "
                    "poled lithium niobate chips")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tuning", help="degeneracy and emission tuning "
                                      "curves of the source")
    _add_common(p)
    p.add_argument("--material", default=None,
                   help="material file (default: bundled congruent LN)")
    p.add_argument("--poling", type=_finite, default=9.217870197227,
                   help="source poling period (um)")
    p.add_argument("--tmin", type=_finite, default=15.0)
    p.add_argument("--tmax", type=_finite, default=40.0)
    p.add_argument("--tstep", type=_finite, default=0.5)
    p.add_argument("--pump-min", type=_finite, default=0.7735)
    p.add_argument("--pump-max", type=_finite, default=0.7765)
    p.add_argument("--pump-points", type=int, default=0,
                   help="emit a pump tuning table with this many points")
    p.add_argument("--pump-temperature", type=_finite, default=24.5)
    p.set_defaults(func=cmd_tuning)

    p = sub.add_parser("jsa", help="joint spectral amplitude and marginals")
    _add_common(p)
    _add_chip_options(p)
    p.add_argument("--dump-grid", action="store_true",
                   help="also write the full complex amplitude grid")
    p.set_defaults(func=cmd_jsa)

    p = sub.add_parser("hom", help="two-photon interference delay scan")
    _add_common(p)
    _add_chip_options(p)
    _add_scan_options(p)
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("sweep", help="visibility versus element "
                                     "imperfection")
    _add_common(p)
    _add_chip_options(p)
    _add_scan_options(p, points_default=41)
    p.add_argument("--element", required=True, choices=IMPERFECTION_TARGETS)
    p.add_argument("--fractions", default="0,0.25,0.5,0.75,1",
                   help="comma separated imperfection fractions")
    p.add_argument("--full-scans", action="store_true",
                   help="write each delay scan, not only the summary")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("pc-window", help="polarisation conversion spectrum")
    _add_common(p)
    p.add_argument("--material", default=None)
    p.add_argument("--poling", type=_finite, default=21.4,
                   help="converter poling period (um)")
    p.add_argument("--length", type=_finite, default=7620.0,
                   help="converter length (um)")
    p.add_argument("--kappa", type=_finite, default=None,
                   help="coupling (rad/um); default pi/(2 length)")
    p.add_argument("--voltage", type=_finite, default=None,
                   help="derive the coupling from a drive voltage (V)")
    p.add_argument("--temperature", type=_finite, default=None)
    p.add_argument("--lmin", type=_finite, default=None,
                   help="first wavelength (um); default auto around centre")
    p.add_argument("--lmax", type=_finite, default=None)
    p.add_argument("--points", type=int, default=2001)
    p.set_defaults(func=cmd_pc_window)

    p = sub.add_parser("switch-map", help="electro-optic coupler bar state "
                                          "versus section voltages")
    _add_common(p)
    p.add_argument("--kappa-c", type=_finite, default=float(np.pi / 16000.0),
                   help="coupling (rad/um); default fully crossing at 0 V")
    p.add_argument("--half-length", type=_finite, default=4000.0)
    p.add_argument("--umin", type=_finite, default=-40.0)
    p.add_argument("--umax", type=_finite, default=40.0)
    p.add_argument("--points", type=int, default=81)
    p.add_argument("--dbeta-per-volt", type=_finite, default=None)
    p.set_defaults(func=cmd_switch_map)

    p = sub.add_parser("coupler-fit", help="fit the sin^2 splitting model "
                                           "to measured ratio tables")
    _add_common(p, plots=False)
    p.add_argument("--te", default=None,
                   help="TE ratio CSV (default: bundled synthetic table)")
    p.add_argument("--tm", default=None,
                   help="TM ratio CSV (default: bundled synthetic table)")
    p.add_argument("--length", type=_finite, default=500.0,
                   help="coupler length whose ratios to report (um)")
    p.set_defaults(func=cmd_coupler_fit)

    p = sub.add_parser("temp-scan", help="dip visibility versus chip "
                                         "temperature")
    _add_common(p)
    _add_chip_options(p)
    _add_scan_options(p, points_default=41)
    p.add_argument("--tmin", type=_finite, default=20.5)
    p.add_argument("--tmax", type=_finite, default=29.5)
    p.add_argument("--tstep", type=_finite, default=1.0)
    p.add_argument("--temperatures", default=None,
                   help="comma separated list overriding tmin/tmax/tstep")
    p.set_defaults(func=cmd_temp_scan)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _emit(args, args.func(args))
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except QpicError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        gc.freeze()  # exit code set: teardown skips collecting these objects


if __name__ == "__main__":
    sys.exit(main())
