"""Exact distributions for diffusion across piecewise-constant volatility phases.

The package provides the closed-form two-phase transition density (with CDF,
moments, and sampling) and the exact three-phase density, both sums of the
Gaussian pieces of multi-skewed Brownian motion; a finite-volume PDE oracle
for cross-validation; maximum likelihood fitting with a likelihood-ratio
normality test; and risk-neutral European call pricing with an
implied-volatility surface generator.  The package exports each module's
public names, as listed in that module's `__all__`.
"""

__version__ = "0.1.0"  # before the imports: cli reads it

from . import cli, inference, numerics, pde_oracle, phase_kernel, pricing
from .numerics import *  # noqa: F401,F403
from .phase_kernel import *  # noqa: F401,F403
from .pde_oracle import *  # noqa: F401,F403
from .inference import *  # noqa: F401,F403
from .pricing import *  # noqa: F401,F403
from .cli import *  # noqa: F401,F403

__all__ = ["__version__"] + [
    name
    for module in (numerics, phase_kernel, pde_oracle, inference, pricing, cli)
    for name in module.__all__
]
