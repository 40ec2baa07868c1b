"""Exact-arithmetic homology of homotopy-associative and strongly
homotopy Lie algebras.

Structures live as square-zero coderivations on truncated cofree
coalgebras over the rationals; every computation is exact.  The package
computes cyclic homology of A-infinity algebras, Chevalley-Eilenberg
homology of L-infinity algebras (optionally reduced to coinvariants),
and verifies a Loday-Quillen-Tsygan-type comparison between stable
matrix homology and the exterior coalgebra on shifted cyclic homology,
degree by degree at finite matrix size.
"""

from .ainfty import (
    AInftyAlgebra,
    check_stasheff,
    check_strict_unit,
    cyclic_homology,
    from_associative,
    from_dga,
)
from .chain import BettiTable, ChainComplex
from .constructions import (
    MatrixAlgebraSpec,
    MatrixElement,
    block_plus,
    gl,
    gl_coinvariant_homology,
    gl_coinvariant_model,
    lie_ify,
    matrix_algebra,
    tensor_with_associative,
)
from .documents import (
    AlgebraDocument,
    DocumentError,
    algebra_to_document,
    document_to_algebra,
    parse_document,
    serialize_document,
)
from .coalgebra import WeightCapExceeded
from .graded import GradedSpace
from .linfty import LInftyAlgebra, check_linfty, lie_homology, primitives
from .lqt import (
    ExteriorExpansion,
    HopfProductReport,
    LQTReport,
    expand_exterior,
    hopf_product_on_homology,
    verify_lqt,
)

__version__ = "0.1.0"

__all__ = [
    "AInftyAlgebra",
    "AlgebraDocument",
    "BettiTable",
    "ChainComplex",
    "DocumentError",
    "ExteriorExpansion",
    "GradedSpace",
    "HopfProductReport",
    "LInftyAlgebra",
    "LQTReport",
    "MatrixAlgebraSpec",
    "MatrixElement",
    "WeightCapExceeded",
    "algebra_to_document",
    "block_plus",
    "check_linfty",
    "check_stasheff",
    "check_strict_unit",
    "cyclic_homology",
    "document_to_algebra",
    "expand_exterior",
    "from_associative",
    "from_dga",
    "gl",
    "gl_coinvariant_homology",
    "gl_coinvariant_model",
    "hopf_product_on_homology",
    "lie_homology",
    "lie_ify",
    "matrix_algebra",
    "parse_document",
    "primitives",
    "serialize_document",
    "tensor_with_associative",
    "verify_lqt",
    "__version__",
]
