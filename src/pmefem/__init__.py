"""Structure-preserving finite element solvers for the porous medium equation.

Two schemes for rho_t = Laplace(rho^m), m > 1, on interval/triangle/quad
meshes with no-flux boundaries: a log-density P1 method (mass conserving,
positive by construction, entropy dissipating, bound preserving on Delaunay
meshes) and a mixed method with cellwise densities and face fluxes (locally
conservative, energy dissipating, positive under a CFL bound).
"""

__version__ = "0.1.0"
