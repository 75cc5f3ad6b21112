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
where the parameter has no default, optional where it has one. An
``ElementDecl`` is checked and built once, when it is declared; an edit,
``CircuitSpec.with_params``, declares a new one. The [source] keys are
the fields of ``source.SourceSpec``, all required.

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
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import elements as el
from . import keyfile
from .dispersion import T_REFERENCE, MaterialModel, _check_temperature, \
    default_material, load_material
from .errors import NetlistError, ValidationError, real
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
    """One netlist element, checked and built once, when it is declared:
    each value is read by ``errors.real``, the keys must be the factory's
    parameters, and ``matrix`` is what the factory builds from them."""

    kind: str
    params: dict
    line: int = 0
    matrix: el.ElementMatrix = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        what = f"element '{self.kind}'"
        if not isinstance(self.params, Mapping):
            raise ValidationError(f"{what}: params must be a mapping of key "
                                  f"to value, got {self.params!r}")
        params = {key: real(value, f"{what}: {key}")
                  for key, value in self.params.items()}
        required, optional = _element_keys(self.kind)
        for key in sorted(required - set(params)):
            raise ValidationError(f"{what}: missing key {key!r}")
        for key in params:
            if key not in required | optional:
                raise ValidationError(f"{what}: unknown key {key!r}")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "matrix",
                           ELEMENT_FACTORIES[self.kind](**params))


@dataclass(frozen=True)
class CircuitSpec:
    """A parsed chip: material, temperature, source and element chain.
    The chain is stored as a tuple of ElementDecl and the temperature is
    range-checked when the spec is built (ValidationError otherwise)."""

    elements: tuple
    model: MaterialModel = field(default_factory=default_material)
    temperature: float = T_REFERENCE
    source: SourceSpec | None = None

    def __post_init__(self):
        try:
            elements = tuple(self.elements)
        except TypeError:
            raise ValidationError(f"circuit elements must be a sequence of "
                                  f"ElementDecl, got {self.elements!r}") \
                from None
        for decl in elements:
            if not isinstance(decl, ElementDecl):
                raise ValidationError(
                    f"circuit element {decl!r} is not an ElementDecl")
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "temperature", _check_temperature(
            real(self.temperature, "temperature")))

    def at_temperature(self, temperature: float) -> "CircuitSpec":
        return replace(self, temperature=temperature)

    def with_elements(self, elements) -> "CircuitSpec":
        return replace(self, elements=elements)

    def with_params(self, kind: str, **updates) -> "CircuitSpec":
        """The chip with ``updates`` to the first element of ``kind``."""
        i = self.index_of(kind)
        elements = list(self.elements)
        decl = elements[i]
        elements[i] = ElementDecl(kind, {**decl.params, **updates}, decl.line)
        return self.with_elements(elements)

    def index_of(self, kind: str) -> int:
        """Index of the first element of ``kind``; ValidationError if none."""
        for i, decl in enumerate(self.elements):
            if decl.kind == kind:
                return i
        raise ValidationError(f"circuit has no '{kind}' element")


def _element_keys(kind: str) -> tuple[set, set]:
    """(required, optional) netlist keys of an element kind: the
    parameters of its factory without and with a default."""
    if kind not in ELEMENT_FACTORIES:
        raise ValidationError(f"unknown element kind {kind!r}; known "
                              f"kinds: {sorted(ELEMENT_FACTORIES)}")
    params = inspect.signature(ELEMENT_FACTORIES[kind]).parameters.values()
    return ({p.name for p in params if p.default is p.empty},
            {p.name for p in params if p.default is not p.empty})


def element_matrices(spec: CircuitSpec, transposed=False) -> list:
    """The chain in propagation order, or, if ``transposed``, reversed
    with transposed blocks: walking it computes U^T @ amps, so for unit
    vectors e_m as ``amps``, column r holds row m_r of U."""
    chain = [d.matrix for d in spec.elements]
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
    decls = []  # (kind, line, params), declared after material and source
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
        else:
            kind = words[1]
            with keyfile.at_line(line):
                keys = _element_keys(kind)
            keyfile.check_keys(block, *keys, f"element '{kind}'")
            decls.append((kind, line, {k: keyfile.number(e)
                                       for k, e in entries.items()}))

    material = sections.get("[material]", {})
    temperature = T_REFERENCE
    if "temperature" in material:
        entry = material["temperature"]
        with keyfile.at_line(entry[1]):
            temperature = _check_temperature(keyfile.number(entry))
    if "file" in material:
        ref, refline, _ = material["file"]
        with keyfile.at_line(refline):
            model = load_material(Path(base_dir or ".") / ref)
    else:
        model = default_material()

    source = None
    if sections.get("[source]"):
        source = SourceSpec(**{k: keyfile.number(e)
                               for k, e in sections["[source]"].items()})

    elements = []
    for kind, line, params in decls:
        # a factory's range check names the line of its element
        try:
            elements.append(ElementDecl(kind, params, line))
        except ValidationError as exc:
            raise NetlistError(f"element '{kind}': {exc}", line=line) \
                from exc
    return CircuitSpec(elements=elements, model=model,
                       temperature=temperature, source=source)


def parse_netlist(path) -> CircuitSpec:
    """Parse a netlist file; relative material paths resolve next to it."""
    p = Path(path)
    text = keyfile.read_text(p, "netlist")
    with keyfile.in_file(p):
        return parse_netlist_text(text, base_dir=p.parent)
