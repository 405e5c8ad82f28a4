"""Pseudo-spectral toolkit for the cubic half-wave equation i dv/dt - |D|v = |v|^2 v
and its resonant effective dynamics (Szego flow and the second-order averaged flow),
with brute-force kernel oracles and error-scaling experiments."""

__version__ = "0.1.0"
