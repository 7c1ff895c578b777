"""Monte Carlo density estimation for SDEs with semi-monotone drifts.

Truncated-drift Euler chains, exact discrete Malliavin derivatives and
integration-by-parts weights, density / density-derivative estimators, and
empirical verification of moment, tail, and decay bounds.
"""

from .models import (
    EllipticityConstants,
    ModelDefinitionError,
    SdeModel,
    BrownianModel,
    OrnsteinUhlenbeckModel,
    DoubleWell1DModel,
    DoubleWell2DModel,
    TruncationFamily,
    MODEL_IDS,
    make_model,
    clamp_point,
    check_semi_monotone,
    check_ellipticity,
    generator_apply,
)
from .simulate import (
    NumericalBlowupError,
    TimeGrid,
    sample_noise_block,
    moment_estimate,
)
from .malliavin import (
    DegenerateCovarianceError,
    quadrature_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "EllipticityConstants",
    "ModelDefinitionError",
    "SdeModel",
    "BrownianModel",
    "OrnsteinUhlenbeckModel",
    "DoubleWell1DModel",
    "DoubleWell2DModel",
    "TruncationFamily",
    "MODEL_IDS",
    "make_model",
    "clamp_point",
    "check_semi_monotone",
    "check_ellipticity",
    "generator_apply",
    "NumericalBlowupError",
    "TimeGrid",
    "sample_noise_block",
    "moment_estimate",
    "DegenerateCovarianceError",
    "quadrature_oracle",
    "__version__",
]
