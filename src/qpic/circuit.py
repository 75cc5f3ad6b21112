"""Chip description, netlist parsing and circuit composition.

A chip is an ordered list of element declarations applied to the 4-mode
basis (1H, 1V, 2H, 2V). The netlist format is line based:

    # comment
    [material]
    file = linbo3.material      # optional; bundled congruent LN otherwise
    temperature = 24.5

    [source]
    pump_wavelength = 0.775
    pulse_duration = 1000.0
    poling_period = 9.217870197227
    pdc_length = 20700.0

    element fp
    l1 = 5000.0
    l2 = 5000.0

    element pbs
    alpha = 1.5707963267948966
    beta = 1.5707963267948966

Elements appear in propagation order: the first listed acts first. Keys
are floats; unknown or duplicate keys are errors with their line number.

``transfer_table(spec, omega, amps)`` is the one path through a chip: it
builds the element chain once, builds one PhaseTable (indices n_H, n_V,
wavevectors and straight phases) on the frequency grid, and lets each
element act with its block structure on a 4 x k table of entries, where
structural zeros stay None and the rest spread over the grid only from the
first dispersive element that touches them. ``transfer_rows_table`` walks
the reversed chain with transposed blocks, for rows of the unitary.
``transfer`` and ``transfer_rows`` stack the table into one mode-major
array (4, k, *grid); ``compose`` is a transfer of the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import elements as el
from .dispersion import MaterialModel, PhaseMatchSpec, default_material, \
    load_material
from .errors import NetlistError, ValidationError
from .source import PumpSpec

# element kind -> (required keys, optional keys)
ELEMENT_SCHEMA = {
    "pbs": ({"alpha", "beta"}, set()),
    "bs": ({"theta", "xi"}, set()),
    "pm": ({"phi_h", "phi_v"}, set()),
    "pc": ({"poling_period", "length", "kappa"}, set()),
    "fp": ({"l1", "l2"}, set()),
    "eobs": ({"kappa_c", "half_length", "dbeta_1", "dbeta_2"},
             {"dbeta_1_v", "dbeta_2_v"}),
}

# the two source photons enter channel 1: H-born in 1H, V-born in 1V
CHANNEL1_INPUTS = np.eye(4)[:, :2]

_SOURCE_KEYS = {"pump_wavelength", "pulse_duration", "poling_period",
                "pdc_length"}
_MATERIAL_KEYS = {"file", "temperature"}


@dataclass(frozen=True)
class ElementDecl:
    """One netlist element: kind plus its numeric parameters."""

    kind: str
    params: dict
    line: int = 0

    def with_params(self, **updates) -> "ElementDecl":
        merged = dict(self.params)
        merged.update(updates)
        return ElementDecl(kind=self.kind, params=merged, line=self.line)


@dataclass(frozen=True)
class CircuitSpec:
    """A parsed chip: material, temperature, source and element chain."""

    elements: tuple
    model: MaterialModel = field(default_factory=default_material)
    temperature: float = 24.5
    pump: PumpSpec | None = None
    phase_spec: PhaseMatchSpec | None = None

    def at_temperature(self, temperature: float) -> "CircuitSpec":
        return replace(self, temperature=float(temperature))

    def with_elements(self, elements) -> "CircuitSpec":
        return replace(self, elements=tuple(elements))


def build_element(decl: ElementDecl, model: MaterialModel,
                  temperature: float) -> el.ElementMatrix:
    """Instantiate the transfer-matrix factory for one declaration."""
    p = decl.params
    if decl.kind == "pbs":
        return el.pbs_matrix(p["alpha"], p["beta"])
    if decl.kind == "bs":
        return el.bs_matrix(p["theta"], p["xi"])
    if decl.kind == "pm":
        return el.pm_matrix(p["phi_h"], p["phi_v"])
    if decl.kind == "pc":
        return el.pc_matrix(model, p["poling_period"], p["length"],
                            p["kappa"], temperature)
    if decl.kind == "fp":
        return el.fp_matrix(model, p["l1"], p["l2"], temperature)
    if decl.kind == "eobs":
        return el.eo_bs_matrix(p["kappa_c"], p["half_length"],
                               p["dbeta_1"], p["dbeta_2"],
                               p.get("dbeta_1_v"), p.get("dbeta_2_v"))
    raise ValidationError(f"unknown element kind {decl.kind!r}")


def element_matrices(spec: CircuitSpec) -> list:
    return [build_element(d, spec.model, spec.temperature)
            for d in spec.elements]


def _walk(chain, spec: CircuitSpec, omega, amps, phases) -> list:
    w = np.asarray(omega, dtype=float)
    if phases is None and any(m.material is not None for m in chain):
        phases = el.PhaseTable(w, el.refractive_indices(spec.model, w,
                                                        spec.temperature))
    table = el.amplitude_table(amps, w.ndim)
    for matrix in chain:
        table = matrix.apply(table, phases)
    return table


def transfer_table(spec: CircuitSpec, omega, amps, phases=None) -> list:
    """U(omega) @ amps as a 4 x k table of entries: None where the entry
    is a structural zero, else an array that spreads over omega's shape
    from the first dispersive element that touches it on.

    ``amps`` holds k input vectors over the mode basis, shape (4, k), and
    its exact zeros are the structural zeros of the input. U = E_n ... E_2
    E_1 (first listed element acts first) is never formed. ``phases`` is
    the PhaseTable of omega at the chip temperature; when absent it is
    built here, once per chain.
    """
    return _walk(element_matrices(spec), spec, omega, amps, phases)


def transfer_rows_table(spec: CircuitSpec, omega, amps,
                        phases=None) -> list:
    """U(omega)^T @ amps as ``transfer_table``, walking the reversed chain
    with transposed blocks: for unit vectors e_m as ``amps``, column r
    holds row m_r of U."""
    chain = [m.transposed() for m in reversed(element_matrices(spec))]
    return _walk(chain, spec, omega, amps, phases)


def transfer(spec: CircuitSpec, omega, amps, phases=None) -> np.ndarray:
    """``transfer_table`` as one array, shape (4, k) + omega.shape."""
    return el.dense(transfer_table(spec, omega, amps, phases),
                    np.shape(omega))


def transfer_rows(spec: CircuitSpec, omega, amps, phases=None) -> np.ndarray:
    """``transfer_rows_table`` as one array, shape (4, k) + omega.shape."""
    return el.dense(transfer_rows_table(spec, omega, amps, phases),
                    np.shape(omega))


def compose(spec: CircuitSpec, omega) -> np.ndarray:
    """Total transfer matrix of the chain, shape ``omega.shape + (4, 4)``."""
    return np.moveaxis(transfer(spec, omega, np.eye(4)), (0, 1), (-2, -1))


# ---------------------------------------------------------------------------
# netlist parsing

def parse_netlist_text(text: str, base_dir=None,
                       model: MaterialModel | None = None) -> CircuitSpec:
    """Parse netlist source text into a CircuitSpec.

    ``base_dir`` resolves a relative material file path. A caller-provided
    ``model`` overrides any [material] file reference.
    """
    material_entries: dict[str, tuple[str, int]] = {}
    source_entries: dict[str, tuple[float, int]] = {}
    decls: list[ElementDecl] = []
    section = None  # None | "material" | "source" | ("element", kind)
    current_params: dict[str, float] = {}
    current_kind = None
    current_line = 0
    seen_material = False
    seen_source = False

    def close_element(lineno):
        nonlocal current_kind, current_params
        if current_kind is None:
            return
        required, _ = ELEMENT_SCHEMA[current_kind]
        missing = required - set(current_params)
        if missing:
            raise NetlistError(
                f"element '{current_kind}' missing required key(s) "
                f"{sorted(missing)}", line=current_line)
        decls.append(ElementDecl(kind=current_kind,
                                 params=dict(current_params),
                                 line=current_line))
        current_kind = None
        current_params = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("[") :
            if not stripped.endswith("]"):
                raise NetlistError("unterminated section header",
                                   line=lineno)
            close_element(lineno)
            name = stripped[1:-1].strip().lower()
            if name == "material":
                if seen_material:
                    raise NetlistError("duplicate [material] section",
                                       line=lineno)
                seen_material = True
            elif name == "source":
                if seen_source:
                    raise NetlistError("duplicate [source] section",
                                       line=lineno)
                seen_source = True
            else:
                raise NetlistError(
                    f"unknown section [{name}]; expected [material] or "
                    f"[source]", line=lineno)
            section = name
            continue
        if stripped.lower().startswith("element"):
            close_element(lineno)
            parts = stripped.split()
            if len(parts) != 2:
                raise NetlistError(
                    "element declaration must be 'element <kind>'",
                    line=lineno)
            kind = parts[1].lower()
            if kind not in ELEMENT_SCHEMA:
                raise NetlistError(
                    f"unknown element kind {kind!r}; known kinds: "
                    f"{sorted(ELEMENT_SCHEMA)}", line=lineno)
            section = ("element",)
            current_kind = kind
            current_params = {}
            current_line = lineno
            continue
        if "=" not in stripped:
            raise NetlistError(f"expected 'key = value', got {stripped!r}",
                               line=lineno)
        key_part, value_part = line.split("=", 1)
        key = key_part.strip().lower()
        value_str = value_part.strip()
        value_col = raw.index("=") + 1 + (len(value_part)
                                          - len(value_part.lstrip())) + 1

        if current_kind is not None:
            required, optional = ELEMENT_SCHEMA[current_kind]
            if key not in required | optional:
                raise NetlistError(
                    f"unknown key {key!r} for element '{current_kind}'",
                    line=lineno)
            if key in current_params:
                raise NetlistError(
                    f"duplicate key {key!r} for element '{current_kind}'",
                    line=lineno)
            current_params[key] = _parse_float(value_str, lineno, value_col)
        elif section == "material":
            if key not in _MATERIAL_KEYS:
                raise NetlistError(
                    f"unknown key {key!r} in [material]", line=lineno)
            if key in material_entries:
                raise NetlistError(f"duplicate key {key!r} in [material]",
                                   line=lineno)
            material_entries[key] = (value_str, lineno) if key == "file" \
                else (_parse_float(value_str, lineno, value_col), lineno)
        elif section == "source":
            if key not in _SOURCE_KEYS:
                raise NetlistError(
                    f"unknown key {key!r} in [source]", line=lineno)
            if key in source_entries:
                raise NetlistError(f"duplicate key {key!r} in [source]",
                                   line=lineno)
            source_entries[key] = (_parse_float(value_str, lineno,
                                                value_col), lineno)
        else:
            raise NetlistError(
                f"key {key!r} outside any section or element", line=lineno)
    close_element(-1)

    temperature = 24.5
    if "temperature" in material_entries:
        temperature = material_entries["temperature"][0]
    if model is None:
        if "file" in material_entries:
            ref, refline = material_entries["file"]
            path = Path(ref)
            if not path.is_absolute():
                path = Path(base_dir or ".") / path
            if not path.exists():
                raise NetlistError(f"material file not found: {path}",
                                   line=refline)
            model = load_material(path)
        else:
            model = default_material()

    pump = None
    phase_spec = None
    if source_entries:
        missing = _SOURCE_KEYS - set(source_entries)
        if missing:
            raise NetlistError(
                f"[source] missing key(s) {sorted(missing)}",
                line=min(line for _, line in source_entries.values()))
        values = {k: v for k, (v, _) in source_entries.items()}
        pump = PumpSpec(pump_wavelength=values["pump_wavelength"],
                        pulse_duration=values["pulse_duration"])
        phase_spec = PhaseMatchSpec(poling_period=values["poling_period"],
                                    pdc_length=values["pdc_length"],
                                    pump_wavelength=values["pump_wavelength"])

    spec = CircuitSpec(elements=tuple(decls), model=model,
                       temperature=temperature, pump=pump,
                       phase_spec=phase_spec)
    _validate_elements(spec)
    return spec


def _parse_float(text: str, lineno: int, column: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise NetlistError(f"not a number: {text!r}", line=lineno,
                           column=column) from None
    if not math.isfinite(value):
        raise NetlistError(f"value must be finite: {text!r}", line=lineno,
                           column=column)
    return value


def _validate_elements(spec: CircuitSpec):
    # instantiating runs each element's own range checks; netlist position
    # is attached so the user sees where the bad element was declared
    for decl in spec.elements:
        try:
            build_element(decl, spec.model, spec.temperature)
        except ValidationError as exc:
            raise NetlistError(f"element '{decl.kind}': {exc}",
                               line=decl.line) from exc


def parse_netlist(path, model: MaterialModel | None = None) -> CircuitSpec:
    """Parse a netlist file; relative material paths resolve next to it."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read netlist {p}: {exc}") from exc
    return parse_netlist_text(text, base_dir=p.parent, model=model)
