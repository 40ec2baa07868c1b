"""Refusals of malformed arguments by the library's constructors."""

import pytest

from homotopyalg.ainfty import AInftyAlgebra, from_associative
from homotopyalg.chain import ChainComplex
from homotopyalg.constructions import PermutationModel, gl_coinvariant_model
from homotopyalg.graded import GradedSpace
from homotopyalg.linfty import LInftyAlgebra, make_inner
from homotopyalg.rational_linalg import kernel

POINT = GradedSpace(["a"], [0])


def no_boundary(q, key):
    return {}


def ground_field_model():
    base = from_associative(["1"], {(0, 0): {0: 1}}, unit=0, name="K")
    return PermutationModel(base, 2)


@pytest.mark.parametrize("build,message", [
    (lambda: AInftyAlgebra(POINT, {0: {(): {0: 1}}}),
     "operations must have arity >= 1"),
    (lambda: AInftyAlgebra(POINT, {2: {(0,): {0: 1}}}),
     "arity 2 entry has 1 inputs"),
    (lambda: AInftyAlgebra(POINT, {}, unit=1), "unit index 1 out of range"),
    (lambda: GradedSpace(["a", "b"], [0]),
     "labels and degrees must have equal length"),
    (lambda: kernel([{2: 1}], 2), "coordinate 2 outside ambient dim 2"),
    (lambda: ChainComplex({0: ["x"]}, no_boundary, {0: [{"y": 1}]}),
     "key 'y' not in block 0"),
    # a span for a block the complex does not have is refused, not dropped
    (lambda: ChainComplex({0: ["x"]}, no_boundary, {1: [{"x": 1}]}),
     "key 'x' not in block 1"),
    (lambda: make_inner(LInftyAlgebra(GradedSpace(["a", "b"], [0, 1]), {}),
                        {0: 1, 1: 1}),
     "generator must be homogeneous in suspended degree"),
    (lambda: gl_coinvariant_model(ground_field_model(), 0),
     "matrix size must be an integer >= 1, got 0"),
], ids=["arity-0", "input-count", "unit-index", "space-lengths",
        "kernel-coordinate", "complex-key", "complex-block",
        "inhomogeneous-generator", "size-0"])
def test_malformed_argument_is_refused(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
