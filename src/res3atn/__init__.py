"""3D residual attention network for gesture-clip classification.

The package itself imports nothing: callers import names from their
submodules (`res3atn.network`, `res3atn.training`, ...).
"""

__version__ = "0.1.0"
