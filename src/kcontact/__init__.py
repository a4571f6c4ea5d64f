"""Numerical toolkit for k-contact Lagrangian field theories with
dissipation: exact jets, contact geometry, Euler-Lagrange dynamics,
Hamilton-De Donder-Weyl checks, symmetries and dissipation laws, the
inverse problem, and a method-of-lines simulator.
"""

from .contact import (HessianW, ReebFields, energy, hessian, legendre, reeb,
                      reeb_derivative_of_energy, verify_reeb)
from .dynamics import (SecondJet, SopdeData, assemble_sopde, el_residual,
                       verify_sopde)
from .errors import (ConfigError, KContactError, NewtonError, NotRegularError,
                     SimulationError)
from .hamiltonian import (HdwResiduals, MomentumPath, hamiltonian_value,
                          hdw_residual, legendre_inverse,
                          momentum_path_from_arrays)
from .inverse import (PdeSpec, build_lagrangian, direct_residual,
                      membrane_spec, roundtrip_check, telegraph_spec)
from .jet import (Jet2, LagrangianModel, MomentumPoint, PhasePoint,
                  evaluate_jet, evaluate_jet_batch, fd_check,
                  random_phase_point, stack_points)
from .models import (build_model, builtin_models, damped_oscillator, free,
                     membrane, string, sv_coupling)
from .sim import (Grid, SimState, SimTrace, energy_monitor, load_trace, run,
                  s_accumulation_check, save_trace, step, trace_el_residual,
                  trace_lagrangian, trace_point_arrays)
from .symmetry import (DissipatedQuantity, SymmetryField,
                       builtin_symmetry_field, check_contact_symmetry,
                       constant_field, dissipated_quantity,
                       dissipation_law_check, lie_derivative_eta,
                       momentum_dissipation_check, reeb_bracket_check)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DissipatedQuantity", "Grid", "HdwResiduals", "HessianW",
    "Jet2", "KContactError", "LagrangianModel", "MomentumPath",
    "MomentumPoint", "NewtonError", "NotRegularError", "PdeSpec",
    "PhasePoint", "ReebFields", "SecondJet", "SimState", "SimTrace",
    "SimulationError", "SopdeData", "SymmetryField", "assemble_sopde",
    "build_lagrangian", "build_model", "builtin_models",
    "builtin_symmetry_field", "check_contact_symmetry", "constant_field",
    "damped_oscillator", "direct_residual", "dissipated_quantity",
    "dissipation_law_check", "el_residual", "energy", "energy_monitor",
    "evaluate_jet", "evaluate_jet_batch", "fd_check", "free",
    "hamiltonian_value", "hdw_residual", "hessian", "legendre",
    "legendre_inverse", "lie_derivative_eta", "load_trace", "membrane",
    "membrane_spec", "momentum_dissipation_check",
    "momentum_path_from_arrays", "random_phase_point", "reeb",
    "reeb_bracket_check", "reeb_derivative_of_energy", "roundtrip_check",
    "run", "s_accumulation_check", "save_trace", "stack_points", "step",
    "string", "sv_coupling", "telegraph_spec", "trace_el_residual",
    "trace_lagrangian", "trace_point_arrays", "verify_reeb", "verify_sopde",
]
