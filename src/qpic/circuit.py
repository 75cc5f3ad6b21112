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

Elements appear in propagation order: the first listed acts first. Values
are finite floats; ``qpic.keyfile`` reads the line format shared with
material and coupler-fit files, and each error names its line.
``ELEMENT_FACTORIES`` maps each element kind to its factory in
``qpic.elements``, whose parameter names are the kind's keys: required
where the parameter has no default, optional where it has one. The
[source] keys are the fields of ``source.SourceSpec``, all required.

``walk`` is the one path through a chip: with one PhaseTable (indices n_H,
n_V, wavevectors and straight phases) on a frequency grid, it lets each
element of a chain from ``element_matrices`` act with its block structure
on a 4 x k table of entries, where structural zeros stay None and the rest
spread over the grid only from the first dispersive element that touches
them. The reversed chain with transposed blocks, walked from unit vectors
e_m, gives rows m of U. ``detection`` walks a chain once per panel of grid
rows, on Chebyshev nodes of the sum axis whose frequencies, and so whose
phases, are np.longdouble, and interpolates the entries to the rows.
"""

from __future__ import annotations

import inspect
import numbers
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import elements as el
from . import keyfile
from .dispersion import T_REFERENCE, MaterialModel, _check_temperature, \
    default_material, load_material
from .errors import NetlistError, ValidationError
from .source import SourceSpec

# element kind -> factory, whose parameters are the kind's netlist keys
ELEMENT_FACTORIES = {"pbs": el.pbs_matrix, "bs": el.bs_matrix,
                     "pm": el.pm_matrix, "pc": el.pc_matrix,
                     "fp": el.fp_matrix, "eobs": el.eo_bs_matrix}

# the two source photons enter channel 1: H-born in 1H, V-born in 1V
CHANNEL1_INPUTS = np.eye(4)[:, :2]

# netlist section -> (required keys, optional keys)
_SECTION_SCHEMA = {
    "[material]": (set(), {"file", "temperature"}),
    "[source]": ({f.name for f in fields(SourceSpec)}, set()),
}


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
    temperature: float = T_REFERENCE
    source: SourceSpec | None = None

    def at_temperature(self, temperature: float) -> "CircuitSpec":
        return replace(self, temperature=float(temperature))

    def with_elements(self, elements) -> "CircuitSpec":
        return replace(self, elements=tuple(elements))


def build_element(decl: ElementDecl) -> el.ElementMatrix:
    """Instantiate the factory of one declaration; ValidationError for an
    unknown kind, an unknown or missing key, or a value not a number."""
    if decl.kind not in ELEMENT_FACTORIES:
        raise ValidationError(f"unknown element kind {decl.kind!r}")
    required, optional = _element_keys(decl.kind)
    what = f"element '{decl.kind}'"
    for key in sorted(required - set(decl.params)):
        raise ValidationError(f"{what}: missing key {key!r}")
    for key, value in decl.params.items():
        if key not in required | optional:
            raise ValidationError(f"{what}: unknown key {key!r}")
        if not isinstance(value, numbers.Real):
            raise ValidationError(f"{what}: {key} = {value!r} is not a number")
    return ELEMENT_FACTORIES[decl.kind](**decl.params)


def _element_keys(kind: str) -> tuple[set, set]:
    """(required, optional) netlist keys of an element kind: the
    parameters of its factory without and with a default."""
    params = inspect.signature(ELEMENT_FACTORIES[kind]).parameters.values()
    return ({p.name for p in params if p.default is p.empty},
            {p.name for p in params if p.default is not p.empty})


def element_matrices(spec: CircuitSpec, transposed=False) -> list:
    """The chain in propagation order, or, if ``transposed``, reversed
    with transposed blocks: walking it computes U^T @ amps, so for unit
    vectors e_m as ``amps``, column r holds row m_r of U."""
    chain = [build_element(d) for d in spec.elements]
    return [m.transposed() for m in reversed(chain)] if transposed else chain


def walk(chain, amps, phases) -> list:
    """U(omega) @ amps through a chain from ``element_matrices``, as a
    4 x k table of entries: None where the entry is a structural zero,
    else an array that spreads over the grid's shape from the first
    dispersive element that touches it on.

    ``amps`` holds k input vectors over the mode basis, shape (4, k), and
    its exact zeros are the structural zeros of the input. U = E_n ... E_2
    E_1 (first listed element acts first) is never formed. ``phases`` is
    the PhaseTable of the grid omega at the chip temperature. A chain
    walked on many grids is built once.
    """
    table = el.amplitude_table(amps, np.ndim(phases.omega))
    for matrix in chain:
        table = matrix.apply(table, phases)
    return table


# ---------------------------------------------------------------------------
# netlist parsing

def parse_netlist_text(text: str, base_dir=None) -> CircuitSpec:
    """Parse netlist source text into a CircuitSpec.

    ``base_dir`` resolves a relative material file path; without a
    [material] file the chip uses the bundled congruent LN.
    """
    (_, _, leading), *blocks = keyfile.read_blocks(text)
    for key, (_, line, _) in leading.items():
        raise NetlistError(f"key {key!r} outside any section or element",
                           line=line)
    sections: dict[str, dict] = {}
    decls: list[ElementDecl] = []
    for block in blocks:
        header, line, entries = block
        words = header.lower().split()
        if header in _SECTION_SCHEMA:
            if header in sections:
                raise NetlistError(f"duplicate {header} section", line=line)
            required, optional = _SECTION_SCHEMA[header]
            # an empty [source] section declares no source
            keyfile.check_keys(block, required if entries else set(),
                               optional, header)
            sections[header] = entries
        elif header.startswith("["):
            raise NetlistError(f"unknown section {header}; expected "
                               f"[material] or [source]", line=line)
        elif len(words) != 2 or not words[0].startswith("element"):
            raise NetlistError(f"expected 'key = value', '[section]' or "
                               f"'element <kind>', got {header!r}", line=line)
        elif words[1] not in ELEMENT_FACTORIES:
            raise NetlistError(f"unknown element kind {words[1]!r}; known "
                               f"kinds: {sorted(ELEMENT_FACTORIES)}",
                               line=line)
        else:
            kind = words[1]
            keyfile.check_keys(block, *_element_keys(kind),
                               f"element '{kind}'")
            decls.append(ElementDecl(
                kind=kind, line=line,
                params={k: keyfile.number(e) for k, e in entries.items()}))

    material = sections.get("[material]", {})
    temperature = T_REFERENCE
    if "temperature" in material:
        entry = material["temperature"]
        with keyfile.at_line(entry[1]):
            temperature = _check_temperature(keyfile.number(entry))
    if "file" in material:
        ref, refline, _ = material["file"]
        path = Path(base_dir or ".") / ref
        if not path.exists():
            raise NetlistError(f"material file not found: {path}",
                               line=refline)
        model = load_material(path)
    else:
        model = default_material()

    source = None
    if sections.get("[source]"):
        source = SourceSpec(**{k: keyfile.number(e)
                               for k, e in sections["[source]"].items()})

    spec = CircuitSpec(elements=tuple(decls), model=model,
                       temperature=temperature, source=source)
    _validate_elements(spec)
    return spec


def _validate_elements(spec: CircuitSpec):
    # instantiating runs each element's own range checks; netlist position
    # is attached so the user sees where the bad element was declared
    for decl in spec.elements:
        try:
            build_element(decl)
        except ValidationError as exc:
            raise NetlistError(f"element '{decl.kind}': {exc}",
                               line=decl.line) from exc


def parse_netlist(path) -> CircuitSpec:
    """Parse a netlist file; relative material paths resolve next to it."""
    p = Path(path)
    text = keyfile.read_text(p, "netlist")
    with keyfile.in_file(p):
        return parse_netlist_text(text, base_dir=p.parent)
