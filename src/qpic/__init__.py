"""Simulator for quantum photonic circuits on periodically poled LiNbO3.

Models pulsed type-II downconversion in a poled waveguide, propagation of
the photon pair through a chain of frequency-dependent 4x4 elements, and
two-detector coincidence probabilities, including interferometer scans
and component-imperfection studies.
"""

from .circuit import (CircuitSpec, ElementDecl, element_matrices,
                      parse_netlist, parse_netlist_text)
from .cmt import (ConversionWindow, CouplerFit, compose_sections,
                  conversion_fraction, fit_coupler, load_coupler_fit,
                  pbs_angles, pc_window, peak_fwhm, save_coupler_fit,
                  splitting_ratio, switch_map)
from .detection import (ScanResult, SweepPoint, TemperaturePoint,
                        apply_imperfection, coincidence,
                        default_delay_values, hom_scan, imperfection_sweep,
                        scan_grid, temperature_scan)
from .dispersion import (C_UM_PS, MaterialModel, SellmeierSet,
                         TuningCurve, default_material,
                         degenerate_wavelength, group_index, group_velocity,
                         index, load_material, omega_from_wavelength,
                         pc_matched_wavelength, pc_mismatch, pdc_mismatch,
                         tuning_curve, wavelength_from_omega, wavevector)
from .elements import (BASIS, ElementMatrix, bs_matrix, eo_bs_dbeta,
                       eo_bs_matrix, fp_matrix, mode_index, pbs_matrix,
                       pc_kappa, pc_matrix, pm_matrix, pm_phases)
from .errors import (NetlistError, NumericalError, PhaseMatchError,
                     QpicError, RangeError, ValidationError)
from .source import (GridSpec, JointSpectralAmplitude, MarginalSpectra,
                     SourceSpec, SpectralDensity, build_jsa,
                     jsa_exchange_asymmetry, marginal_spectra)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
