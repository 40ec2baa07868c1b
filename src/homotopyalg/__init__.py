"""Exact-arithmetic homology of homotopy-associative and strongly
homotopy Lie algebras.

Structures live as square-zero coderivations on truncated cofree
coalgebras over the rationals; every computation is exact.  The package
computes cyclic homology of A-infinity algebras, Chevalley-Eilenberg
homology of L-infinity algebras (optionally reduced to coinvariants),
and verifies a Loday-Quillen-Tsygan-type comparison between stable
matrix homology and the exterior coalgebra on shifted cyclic homology,
degree by degree at finite matrix size.

The names in `__all__` resolve on first use: `import homotopyalg` loads
no submodule, and reading `homotopyalg.cyclic_homology` imports
`homotopyalg.ainfty` then, so that each command line entry point loads
only the modules it runs.
"""

import importlib

# Each exported name and the submodule that defines it.
_EXPORTS = {
    "AInftyAlgebra": "ainfty",
    "check_stasheff": "ainfty",
    "check_strict_unit": "ainfty",
    "cyclic_homology": "ainfty",
    "from_associative": "ainfty",
    "from_dga": "ainfty",
    "BettiTable": "chain",
    "ChainComplex": "chain",
    "gl": "constructions",
    "gl_coinvariant_model": "constructions",
    "lie_ify": "constructions",
    "matrix_algebra": "constructions",
    "AlgebraDocument": "documents",
    "DocumentError": "documents",
    "algebra_to_document": "documents",
    "document_to_algebra": "documents",
    "parse_document": "documents",
    "serialize_document": "documents",
    "GradedSpace": "graded",
    "LInftyAlgebra": "linfty",
    "check_linfty": "linfty",
    "lie_homology": "linfty",
    "HopfProductReport": "lqt",
    "LQTReport": "lqt",
    "expand_exterior": "lqt",
    "hopf_product_on_homology": "lqt",
    "verify_lqt": "lqt",
}

__version__ = "0.1.0"

__all__ = [*sorted(_EXPORTS), "__version__"]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value
