"""matspec: spectral objects of random matrix products and heavy-tail
diagnostics for affine stochastic recursions X_{n+1} = A X_n + B."""

__version__ = "0.13.0"

from .ensemble import (  # noqa: F401
    AffineEnsemble,
    EnsembleError,
    HypothesisError,
    LinearEnsemble,
    load_ensemble,
    save_ensemble,
    transpose,
    validate_linear,
)
from .projective import DirectionGrid, GridFunction, GridMeasure, build_grid  # noqa: F401
from .transfer import KSolver, SpectralPoint  # noqa: F401
