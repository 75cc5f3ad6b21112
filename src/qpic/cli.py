"""Command line interface.

Every subcommand writes CSV artifacts plus a JSON manifest (inputs with
checksums, package versions, a configuration echo and a result summary)
into the output directory. Exit codes: 0 success, 2 invalid input,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .circuit import CircuitSpec, parse_netlist
from .cmt import fit_coupler, pbs_angles, pc_spectrum, peak_fwhm, \
    save_coupler_fit, switch_map
from .detection import (CoincidenceQuery, hom_scan, imperfection_sweep,
                        temperature_scan)
from .dispersion import (MaterialModel, PhaseMatchSpec, default_material,
                         degenerate_wavelength, load_material,
                         pc_matched_wavelength, tuning_curve)
from .elements import pc_kappa
from .errors import NumericalError, QpicError, RangeError, ValidationError
from .source import (GridSpec, PumpSpec, build_jsa, jsa_exchange_asymmetry,
                     marginal_spectra)

_DATA_PACKAGE = "qpic.data"


def _data_path(name: str) -> Path:
    from importlib.resources import files

    return Path(str(files(_DATA_PACKAGE).joinpath(name)))


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.11e}"  # 12 significant digits


def _write_csv(path: Path, header, rows) -> Path:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    return path


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _write_manifest(outdir: Path, command: str, config: dict, inputs,
                    outputs, summary: dict) -> Path:
    manifest = {
        "command": command,
        "config": _jsonable(config),
        "inputs": [{"path": str(p), "sha256": _sha256(Path(p))}
                   for p in inputs],
        "outputs": [{"path": str(Path(p).name), "sha256": _sha256(Path(p))}
                    for p in outputs],
        "summary": _jsonable(summary),
        "versions": {
            "package": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
    }
    path = outdir / (command.replace("-", "_") + "_manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_gnuplot(outdir: Path, name: str, csv_name: str, xlabel: str,
                   ylabel: str, using: str = "1:2") -> Path:
    path = outdir / f"{name}.gp"
    content = "\n".join([
        'set datafile separator ","',
        "set key off",
        f'set xlabel "{xlabel}"',
        f'set ylabel "{ylabel}"',
        f'plot "{csv_name}" skip 1 using {using} with lines',
        "pause -1",
    ]) + "\n"
    path.write_text(content, encoding="utf-8")
    return path


def _outdir(args) -> Path:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_model(args) -> tuple[MaterialModel, list]:
    if args.material is not None:
        path = Path(args.material)
        if not path.exists():
            raise ValidationError(f"material file not found: {path}")
        return load_material(path), [path]
    return default_material(), [_data_path("linbo3.material")]


def _netlist_path(args) -> Path:
    if args.netlist is not None:
        path = Path(args.netlist)
        if not path.exists():
            raise ValidationError(f"netlist not found: {path}")
        return path
    return _data_path("ideal_chip.net")


def _load_chip(args) -> tuple[CircuitSpec, Path]:
    path = _netlist_path(args)
    spec = parse_netlist(path)
    if getattr(args, "temperature", None) is not None:
        spec = spec.at_temperature(args.temperature)
    if spec.pump is None or spec.phase_spec is None:
        raise ValidationError(
            f"netlist {path} has no [source] section; this command needs "
            f"the photon-pair source")
    pump = spec.pump
    phase = spec.phase_spec
    if getattr(args, "tau", None) is not None:
        pump = PumpSpec(pump_wavelength=pump.pump_wavelength,
                        pulse_duration=args.tau)
    if getattr(args, "pump", None) is not None:
        pump = PumpSpec(pump_wavelength=args.pump,
                        pulse_duration=pump.pulse_duration)
        phase = replace(phase, pump_wavelength=args.pump)
    if getattr(args, "pdc_length", None) is not None:
        phase = replace(phase, pdc_length=args.pdc_length)
    if getattr(args, "poling", None) is not None:
        phase = replace(phase, poling_period=args.poling)
    spec = replace(spec, pump=pump, phase_spec=phase)

    pc_length = getattr(args, "pc_length", None)
    pc_kappa_arg = getattr(args, "pc_kappa", None)
    if pc_length is not None or pc_kappa_arg is not None:
        pc_indices = [i for i, d in enumerate(spec.elements)
                      if d.kind == "pc"]
        if not pc_indices:
            raise ValidationError("netlist has no 'pc' element to override")
        i = pc_indices[0]
        decl = spec.elements[i]
        updates = {}
        if pc_length is not None:
            updates["length"] = pc_length
            updates["kappa"] = np.pi / (2.0 * pc_length)
        if pc_kappa_arg is not None:
            updates["kappa"] = pc_kappa_arg
        elements = list(spec.elements)
        elements[i] = decl.with_params(**updates)
        spec = spec.with_elements(elements)
    return spec, path


def _grid_from(args) -> GridSpec:
    n = args.grid
    if n < 3:
        raise ValidationError(f"--grid must be >= 3, got {n}")
    return GridSpec(size_sum=n, size_diff=n)


def _query_from(args) -> CoincidenceQuery:
    label = getattr(args, "pol", "VV")
    if label == "insensitive":
        return CoincidenceQuery(insensitive=True)
    return CoincidenceQuery(pol_b=label[0], pol_c=label[1])


def _delays_from(args) -> np.ndarray:
    if args.points < 3:
        raise ValidationError(f"--points must be >= 3, got {args.points}")
    if not args.lmax > args.lmin:
        raise ValidationError("--lmax must be greater than --lmin")
    return np.linspace(args.lmin, args.lmax, args.points)


def _scan_summary(scan) -> dict:
    return {
        "visibility": scan.visibility,
        "minimum": scan.minimum,
        "maximum": scan.maximum,
        "baseline": scan.baseline,
        "dip_position_um": scan.dip_position,
        "dip_fwhm_um": scan.dip_fwhm,
        "boundary_warning": scan.boundary_warning,
    }


# ---------------------------------------------------------------------------
# subcommands

def cmd_tuning(args) -> int:
    outdir = _outdir(args)
    model, inputs = _load_model(args)
    if args.tstep <= 0:
        raise ValidationError(f"--tstep must be > 0, got {args.tstep}")
    if not args.tmax >= args.tmin:
        raise ValidationError("--tmax must not be below --tmin")
    temps = np.arange(args.tmin, args.tmax + args.tstep / 2.0, args.tstep)
    rows = []
    for t in temps:
        lam = degenerate_wavelength(model, args.poling, float(t))
        rows.append((float(t), lam))
    outputs = [_write_csv(outdir / "tuning_temperature.csv",
                          ["temperature_c", "degenerate_wavelength_um"],
                          rows)]
    slope = np.polyfit(temps, [r[1] for r in rows], 1)[0] if len(rows) > 1 \
        else float("nan")
    summary = {"degeneracy_slope_um_per_c": float(slope),
               "n_temperatures": len(rows)}

    if args.pump_points:
        if args.pump_points < 2:
            raise ValidationError("--pump-points must be >= 2")
        pumps = np.linspace(args.pump_min, args.pump_max, args.pump_points)
        spec = PhaseMatchSpec(poling_period=args.poling, pdc_length=20700.0,
                              pump_wavelength=float(np.median(pumps)))
        curve = tuning_curve(model, spec, args.pump_temperature, pumps)
        outputs.append(_write_csv(
            outdir / "tuning_pump.csv",
            ["pump_wavelength_um", "signal_wavelength_um",
             "idler_wavelength_um"],
            zip(curve.pump, curve.signal, curve.idler)))
        summary["pump_points_omitted"] = list(curve.omitted)

    if args.gnuplot_script:
        outputs.append(_write_gnuplot(
            outdir, "tuning_temperature", "tuning_temperature.csv",
            "temperature (C)", "degenerate wavelength (um)"))
    _write_manifest(outdir, "tuning", _config(args), inputs, outputs,
                    summary)
    return 0


def cmd_jsa(args) -> int:
    outdir = _outdir(args)
    spec, netlist = _load_chip(args)
    jsa = build_jsa(spec.model, spec.pump, spec.phase_spec,
                    _grid_from(args), temperature=spec.temperature)
    marginals = marginal_spectra(jsa)
    rows = []
    for label, m in (("signal", marginals.signal), ("idler",
                                                    marginals.idler)):
        for i in range(len(m.omega)):
            rows.append((label, m.wavelength[i], m.omega[i], m.density[i],
                         m.intensity[i]))
    outputs = [_write_csv(outdir / "jsa_marginals.csv",
                          ["photon", "wavelength_um", "omega_rad_ps",
                           "density", "intensity"], rows)]
    if args.dump_grid:
        grid_rows = []
        for i, s in enumerate(jsa.sum_grid):
            for j, d in enumerate(jsa.diff_grid):
                grid_rows.append((s, d, jsa.amplitude[i, j].real,
                                  jsa.amplitude[i, j].imag))
        outputs.append(_write_csv(
            outdir / "jsa_grid.csv",
            ["sum_rad_ps", "diff_rad_ps", "re_amplitude", "im_amplitude"],
            grid_rows))
    if args.gnuplot_script:
        outputs.append(_write_gnuplot(
            outdir, "jsa_marginals", "jsa_marginals.csv",
            "wavelength (um)", "normalised intensity", using="2:5"))
    summary = {
        "exchange_asymmetry": jsa_exchange_asymmetry(jsa),
        "normalization": jsa.normalization,
        "ridge_offset_rad_ps": jsa.ridge_offset,
        "signal_peak_um": marginals.signal.peak_wavelength,
        "idler_peak_um": marginals.idler.peak_wavelength,
        "temperature_c": spec.temperature,
    }
    _write_manifest(outdir, "jsa", _config(args), [netlist], outputs,
                    summary)
    return 0


def cmd_hom(args) -> int:
    outdir = _outdir(args)
    spec, netlist = _load_chip(args)
    jsa = build_jsa(spec.model, spec.pump, spec.phase_spec,
                    _grid_from(args), temperature=spec.temperature)
    scan = hom_scan(jsa, spec, _delays_from(args), _query_from(args))
    outputs = [_write_csv(outdir / "hom_scan.csv",
                          ["delta_l_um", "coincidence_probability"],
                          scan.as_rows())]
    if args.gnuplot_script:
        outputs.append(_write_gnuplot(
            outdir, "hom_scan", "hom_scan.csv", "delay length (um)",
            "coincidence probability"))
    _write_manifest(outdir, "hom", _config(args), [netlist], outputs,
                    _scan_summary(scan))
    return 0


def cmd_sweep(args) -> int:
    outdir = _outdir(args)
    spec, netlist = _load_chip(args)
    try:
        fractions = [float(v) for v in args.fractions.split(",") if v != ""]
    except ValueError as exc:
        raise ValidationError(f"bad --fractions value: {exc}") from exc
    if not fractions:
        raise ValidationError("--fractions must list at least one value")
    jsa = build_jsa(spec.model, spec.pump, spec.phase_spec,
                    _grid_from(args), temperature=spec.temperature)
    points = imperfection_sweep(jsa, spec, args.element, fractions,
                                _delays_from(args), _query_from(args))
    rows = [(p.fraction, p.visibility, p.minimum, p.maximum, p.baseline,
             p.dip_position) for p in points]
    outputs = [_write_csv(
        outdir / "sweep_summary.csv",
        ["fraction", "visibility", "min_probability", "max_probability",
         "baseline", "dip_position_um"], rows)]
    if args.full_scans:
        for k, p in enumerate(points):
            outputs.append(_write_csv(
                outdir / f"sweep_scan_{k:02d}.csv",
                ["delta_l_um", "coincidence_probability"],
                p.scan.as_rows()))
    if args.gnuplot_script:
        outputs.append(_write_gnuplot(
            outdir, "sweep_summary", "sweep_summary.csv",
            "imperfection fraction", "visibility"))
    summary = {"element": args.element,
               "visibilities": [p.visibility for p in points]}
    _write_manifest(outdir, "sweep", _config(args), [netlist], outputs,
                    summary)
    return 0


def cmd_pc_window(args) -> int:
    outdir = _outdir(args)
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
    lams, frac = pc_spectrum(model, args.poling, args.length, kappa,
                             temperature=args.temperature,
                             wavelengths=wavelengths,
                             n_points=args.points)
    outputs = [_write_csv(outdir / "pc_window.csv",
                          ["wavelength_um", "conversion_fraction"],
                          zip(lams, frac))]
    if args.gnuplot_script:
        outputs.append(_write_gnuplot(
            outdir, "pc_window", "pc_window.csv", "wavelength (um)",
            "conversion fraction"))
    summary = {
        "centre_um": pc_matched_wavelength(model, args.poling,
                                           args.temperature),
        "fwhm_um": peak_fwhm(lams, frac),
        "peak_fraction": float(np.max(frac)),
        "kappa_rad_um": float(kappa),
    }
    _write_manifest(outdir, "pc-window", _config(args), inputs, outputs,
                    summary)
    return 0


def cmd_switch_map(args) -> int:
    outdir = _outdir(args)
    if args.points < 2:
        raise ValidationError(f"--points must be >= 2, got {args.points}")
    voltages = np.linspace(args.umin, args.umax, args.points)
    bar = switch_map(args.kappa_c, args.half_length, voltages, voltages,
                     args.dbeta_per_volt)
    rows = []
    for i, u1 in enumerate(voltages):
        for j, u2 in enumerate(voltages):
            rows.append((u1, u2, bar[i, j]))
    outputs = [_write_csv(outdir / "switch_map.csv",
                          ["u1_v", "u2_v", "bar_fraction"], rows)]
    if args.gnuplot_script:
        outputs.append(_write_gnuplot(
            outdir, "switch_map", "switch_map.csv", "U1 (V)", "U2 (V)",
            using="1:2:3"))
    i_min = np.unravel_index(int(np.argmin(bar)), bar.shape)
    i_max = np.unravel_index(int(np.argmax(bar)), bar.shape)
    summary = {
        "bar_min": float(bar.min()), "bar_max": float(bar.max()),
        "bar_min_at_v": [float(voltages[i_min[0]]),
                         float(voltages[i_min[1]])],
        "bar_max_at_v": [float(voltages[i_max[0]]),
                         float(voltages[i_max[1]])],
    }
    _write_manifest(outdir, "switch-map", _config(args), [], outputs,
                    summary)
    return 0


def _read_ratio_csv(path: Path):
    lengths, ratios = [], []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
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
                raise ValidationError(
                    f"{path}: line {lineno}: {exc}") from exc
    return np.array(lengths), np.array(ratios)


def cmd_coupler_fit(args) -> int:
    outdir = _outdir(args)
    te_path = Path(args.te) if args.te else _data_path(
        "coupler_ratios_te.csv")
    tm_path = Path(args.tm) if args.tm else _data_path(
        "coupler_ratios_tm.csv")
    for path in (te_path, tm_path):
        if not path.exists():
            raise ValidationError(f"ratio table not found: {path}")
    lengths_te, ratios_te = _read_ratio_csv(te_path)
    lengths_tm, ratios_tm = _read_ratio_csv(tm_path)
    fit = fit_coupler(lengths_te, ratios_te, lengths_tm, ratios_tm)
    fit_path = outdir / "coupler_fit.txt"
    save_coupler_fit(fit, fit_path)
    alpha, beta = pbs_angles(fit, args.length)
    from .cmt import splitting_ratio

    summary = {
        "beat_te_um": fit.beat_te, "offset_te_um": fit.offset_te,
        "beat_tm_um": fit.beat_tm, "offset_tm_um": fit.offset_tm,
        "ratio_h": splitting_ratio(fit, args.length, "H"),
        "ratio_v": splitting_ratio(fit, args.length, "V"),
        "alpha_rad": alpha, "beta_rad": beta,
        "coupler_length_um": args.length,
    }
    _write_manifest(outdir, "coupler-fit", _config(args),
                    [te_path, tm_path], [fit_path], summary)
    return 0


def cmd_temp_scan(args) -> int:
    outdir = _outdir(args)
    spec, netlist = _load_chip(args)
    if args.temperatures:
        try:
            temps = [float(v) for v in args.temperatures.split(",")
                     if v != ""]
        except ValueError as exc:
            raise ValidationError(
                f"bad --temperatures value: {exc}") from exc
    else:
        if args.tstep <= 0:
            raise ValidationError(f"--tstep must be > 0, got {args.tstep}")
        temps = list(np.arange(args.tmin, args.tmax + args.tstep / 2.0,
                               args.tstep))
    points = temperature_scan(spec, temps, _delays_from(args),
                              _query_from(args), _grid_from(args))
    rows = [(p.temperature, p.visibility, p.scan.minimum, p.scan.baseline,
             p.scan.dip_position, p.signal_peak, p.idler_peak,
             p.window_centre, p.signal_fwhm, p.window_fwhm,
             p.outside_window) for p in points]
    outputs = [_write_csv(
        outdir / "temp_scan.csv",
        ["temperature_c", "visibility", "minimum", "baseline",
         "dip_position_um", "signal_peak_um", "idler_peak_um",
         "window_centre_um", "signal_fwhm_um", "window_fwhm_um",
         "outside_window"], rows)]
    if args.gnuplot_script:
        outputs.append(_write_gnuplot(
            outdir, "temp_scan", "temp_scan.csv", "temperature (C)",
            "visibility"))
    best = max(points, key=lambda p: p.visibility)
    summary = {"best_temperature_c": best.temperature,
               "best_visibility": best.visibility}
    _write_manifest(outdir, "temp-scan", _config(args), [netlist], outputs,
                    summary)
    return 0


def _config(args) -> dict:
    skip = {"func"}
    return {k: _jsonable(v) for k, v in vars(args).items() if k not in skip}


# ---------------------------------------------------------------------------
# parser

def _add_common(p):
    p.add_argument("-o", "--output-dir", default=".",
                   help="directory for artifacts (default: current)")
    p.add_argument("--gnuplot-script", action="store_true",
                   help="also write a gnuplot script for the main CSV")


def _add_chip_options(p, grid_default=512):
    p.add_argument("--netlist", default=None,
                   help="chip netlist (default: bundled reference chip)")
    p.add_argument("--temperature", type=float, default=None,
                   help="override the netlist temperature (C)")
    p.add_argument("--tau", type=float, default=None,
                   help="override the pump pulse duration (ps)")
    p.add_argument("--pump", type=float, default=None,
                   help="override the pump wavelength (um)")
    p.add_argument("--poling", type=float, default=None,
                   help="override the source poling period (um)")
    p.add_argument("--pdc-length", type=float, default=None,
                   help="override the poled source length (um)")
    p.add_argument("--pc-length", type=float, default=None,
                   help="override the converter length (um); kappa is "
                        "reset to pi/(2 length) unless --pc-kappa is given")
    p.add_argument("--pc-kappa", type=float, default=None,
                   help="override the converter coupling (rad/um)")
    p.add_argument("--grid", type=int, default=grid_default,
                   help=f"points per grid axis (default {grid_default})")


def _add_scan_options(p, points_default=105):
    p.add_argument("--lmin", type=float, default=-1500.0,
                   help="first delay length (um)")
    p.add_argument("--lmax", type=float, default=3700.0,
                   help="last delay length (um)")
    p.add_argument("--points", type=int, default=points_default,
                   help=f"number of delay samples (default {points_default})")
    p.add_argument("--pol", default="VV",
                   choices=["HH", "HV", "VH", "VV", "insensitive"],
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
    p.add_argument("--poling", type=float, default=9.217870197227,
                   help="source poling period (um)")
    p.add_argument("--tmin", type=float, default=15.0)
    p.add_argument("--tmax", type=float, default=40.0)
    p.add_argument("--tstep", type=float, default=0.5)
    p.add_argument("--pump-min", type=float, default=0.7735)
    p.add_argument("--pump-max", type=float, default=0.7765)
    p.add_argument("--pump-points", type=int, default=0,
                   help="emit a pump tuning table with this many points")
    p.add_argument("--pump-temperature", type=float, default=24.5)
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
    p.add_argument("--element", required=True,
                   choices=["bs", "pbs", "pbs-one-pol", "pc"])
    p.add_argument("--fractions", default="0,0.25,0.5,0.75,1",
                   help="comma separated imperfection fractions")
    p.add_argument("--full-scans", action="store_true",
                   help="write each delay scan, not only the summary")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("pc-window", help="polarisation conversion spectrum")
    _add_common(p)
    p.add_argument("--material", default=None)
    p.add_argument("--poling", type=float, default=21.4,
                   help="converter poling period (um)")
    p.add_argument("--length", type=float, default=7620.0,
                   help="converter length (um)")
    p.add_argument("--kappa", type=float, default=None,
                   help="coupling (rad/um); default pi/(2 length)")
    p.add_argument("--voltage", type=float, default=None,
                   help="derive the coupling from a drive voltage (V)")
    p.add_argument("--temperature", type=float, default=None)
    p.add_argument("--lmin", type=float, default=None,
                   help="first wavelength (um); default auto around centre")
    p.add_argument("--lmax", type=float, default=None)
    p.add_argument("--points", type=int, default=2001)
    p.set_defaults(func=cmd_pc_window)

    p = sub.add_parser("switch-map", help="electro-optic coupler bar state "
                                          "versus section voltages")
    _add_common(p)
    p.add_argument("--kappa-c", type=float, default=float(np.pi / 16000.0),
                   help="coupling (rad/um); default fully crossing at 0 V")
    p.add_argument("--half-length", type=float, default=4000.0)
    p.add_argument("--umin", type=float, default=-40.0)
    p.add_argument("--umax", type=float, default=40.0)
    p.add_argument("--points", type=int, default=81)
    p.add_argument("--dbeta-per-volt", type=float, default=None)
    p.set_defaults(func=cmd_switch_map)

    p = sub.add_parser("coupler-fit", help="fit the sin^2 splitting model "
                                           "to measured ratio tables")
    _add_common(p)
    p.add_argument("--te", default=None,
                   help="TE ratio CSV (default: bundled synthetic table)")
    p.add_argument("--tm", default=None,
                   help="TM ratio CSV (default: bundled synthetic table)")
    p.add_argument("--length", type=float, default=500.0,
                   help="coupler length whose ratios to report (um)")
    p.set_defaults(func=cmd_coupler_fit)

    p = sub.add_parser("temp-scan", help="dip visibility versus chip "
                                         "temperature")
    _add_common(p)
    _add_chip_options(p)
    _add_scan_options(p, points_default=41)
    p.add_argument("--tmin", type=float, default=20.5)
    p.add_argument("--tmax", type=float, default=29.5)
    p.add_argument("--tstep", type=float, default=1.0)
    p.add_argument("--temperatures", default=None,
                   help="comma separated list overriding tmin/tmax/tstep")
    p.set_defaults(func=cmd_temp_scan)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except QpicError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
