"""Pseudo-spectral toolkit for the cubic half-wave equation i dv/dt - |D|v = |v|^2 v
and its resonant effective dynamics (Szego flow and the second-order averaged flow),
with brute-force kernel oracles and error-scaling experiments."""

__version__ = "0.1.0"

from .spectral import (
    Domain,
    FrequencyGrid,
    SpectralField,
    apply_inv_D_minus,
    conserved_series,
    cubic_product,
    energy,
    field_from_modes,
    free_flow,
    from_physical,
    make_grid,
    mass,
    max_rel_drift,
    momentum,
    negative_mode_mass,
    project_minus,
    project_plus,
    random_field,
    sobolev_norm,
    to_physical,
)

__all__ = [
    "Domain",
    "FrequencyGrid",
    "SpectralField",
    "__version__",
    "apply_inv_D_minus",
    "conserved_series",
    "cubic_product",
    "energy",
    "field_from_modes",
    "free_flow",
    "from_physical",
    "make_grid",
    "mass",
    "max_rel_drift",
    "momentum",
    "negative_mode_mass",
    "project_minus",
    "project_plus",
    "random_field",
    "sobolev_norm",
    "to_physical",
]
