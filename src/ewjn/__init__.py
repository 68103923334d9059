"""Evanescent-wave Johnson noise above a metallic half-space.

Field spectral densities (electric and magnetic, local or nonlocal
response, quasistatic or retarded) and the qubit relaxation times they
imply. See the README for the CLI and the physics conventions.

The package namespace is the public API: the inputs a caller builds
(a Material, a QuadratureConfig, a Model, a QubitSpec), the evaluation
path (evaluate_batch over (z, omega) points, evaluate at one), the
relaxation time, the bulk and surface-limit Green function, and the two
error types. Constants, dielectric functions, reflection kernels and
the quadrature rules are reached through their modules.
"""

from .errors import DomainError, QuadratureError
from .materials import COPPER, Material, load_material, parse_material_config
from .quadrature import QuadratureConfig
from .spectral import Model, evaluate, evaluate_batch, regime_select
from .bulk import bulk_imD_coincident, surface_limit_imD
from .relaxation import QubitSpec, t1

__version__ = "0.1.0"

__all__ = ["COPPER", "DomainError", "Material", "Model", "QuadratureConfig", "QuadratureError",
           "QubitSpec", "bulk_imD_coincident", "evaluate", "evaluate_batch", "load_material",
           "parse_material_config", "regime_select", "surface_limit_imD", "t1"]
