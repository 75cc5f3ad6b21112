"""Shared fixtures.

Expensive objects (material model, parsed example chip, biphoton grids)
are session scoped so the suite builds each of them once.
"""

from importlib import resources

import numpy as np
import pytest
from hypothesis import settings

import qpic
from qpic.circuit import element_matrices, walk
from tests.oracles import phase_table

# reproducible property tests: fixed example sequence, no timing limits
settings.register_profile("qpic", derandomize=True, deadline=None)
settings.load_profile("qpic")


def bundled(name):
    return resources.files("qpic.data") / name


def walked(spec, omega, amps=np.eye(4), transposed=False):
    """U(omega) @ amps from the library's walk of the chip (U^T @ amps if
    ``transposed``: the reversed chain with transposed blocks, so for unit
    vectors e_m as ``amps``, column r holds row m_r of U), as one array
    omega.shape + (4, k), 0 at the structural zeros."""
    chain = element_matrices(spec)
    if transposed:
        chain = [m.transposed() for m in reversed(chain)]
    phases = phase_table(omega, spec.model, spec.temperature)
    table = walk(chain, amps, phases)
    out = np.zeros(np.shape(omega) + (4, len(table[0])), dtype=complex)
    for i, row in enumerate(table):
        for c, entry in enumerate(row):
            if entry is not None:
                out[..., i, c] = entry
    return out


@pytest.fixture(scope="session")
def model():
    return qpic.default_material()


@pytest.fixture(scope="session")
def chip():
    return qpic.parse_netlist(bundled("ideal_chip.net"))


@pytest.fixture(scope="session")
def jsa_small(chip):
    # coarse grid, enough for structural checks
    return qpic.build_jsa(chip.model, chip.source,
                          qpic.GridSpec(128, 128))


@pytest.fixture(scope="session")
def jsa_medium(chip):
    return qpic.build_jsa(chip.model, chip.source,
                          qpic.GridSpec(256, 256))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260816)
