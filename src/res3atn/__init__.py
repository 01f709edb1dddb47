"""3D residual attention network for gesture-clip classification.

The package itself imports nothing: callers import names from their
submodules (`res3atn.network`, `res3atn.training`, ...). Importing
`res3atn.cli` applies the R3ATN_THREADS cap before numpy loads.
"""

__version__ = "0.1.0"
