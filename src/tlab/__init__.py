"""Spectral verification laboratory for thermoelastic laminated beam systems.

The package studies the one-dimensional Cauchy problem for a laminated
Timoshenko beam coupled to type III (or frictional) heat conduction through
either a first-order or a zero-order coupling term.  After a Fourier
transform in space each frequency xi evolves by a linear ODE
Uhat_t = A(xi) Uhat on C^8, and everything here is built on that reduction:

* forms      -- Hermitian quadratic forms and the state's component order
* model      -- parameters, the generator A(xi), the energy form
* dynamics   -- exact semigroup propagation, spectra, instability witnesses
* identities -- the differential-identity catalog with residual checks
* lyapunov   -- functional assembly and decay certificates
* envelope   -- decay envelopes f(xi), auxiliary integral/sup lemmas, rate table
* fullline   -- Plancherel reconstruction of whole-line Sobolev norms
* suite      -- the 14 standard configurations and the unstable reference
* cli        -- command-line front end
"""

from tlab.model import (
    SystemConfig,
    GeneratorMatrices,
    Tau,
    Damping,
    Coupling,
    assemble_generator,
    hermitian_energy,
    dissipation_rate,
    load_config,
    parse_config_text,
)
from tlab.forms import HermitianForm

__all__ = [
    "SystemConfig",
    "GeneratorMatrices",
    "Tau",
    "Damping",
    "Coupling",
    "HermitianForm",
    "assemble_generator",
    "hermitian_energy",
    "dissipation_rate",
    "load_config",
    "parse_config_text",
]
