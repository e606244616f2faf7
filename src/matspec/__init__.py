"""matspec: spectral objects of random matrix products and heavy-tail
diagnostics for affine stochastic recursions X_{n+1} = A X_n + B.

The package exports only ``__version__``; import each routine from its
module (``matspec.ensemble``, ``matspec.spectrum``, ...), so that a run
loads only the modules it uses."""

__version__ = "0.17.0"
