"""Extremal toric Kahler metrics on blow-ups of CP^n, from polytope data.

Construction of the extremal t-potentials for the blow-up family, plus three
independent scalar-curvature evaluations (radial, general toric via Abreu's
formula, and Calabi's Kahler-side formula) used to cross-check each other.

The modules are the API: import each name from the module that defines it,
``from toricext.exact import solve_coefficients`` say.  ``import toricext``
loads no submodule, so a CLI call loads only the modules its command runs.
"""

__version__ = "0.1.0"
