"""Refusals of malformed arguments by the library's constructors and
entry points."""

from pathlib import Path

import pytest

from homotopyalg.ainfty import (
    AInftyAlgebra,
    check_stasheff,
    cyclic_homology,
    from_associative,
)
from homotopyalg.chain import ChainComplex
from homotopyalg.coalgebra import bracket
from homotopyalg.constructions import (
    PermutationModel,
    gl,
    gl_coinvariant_model,
    lie_ify,
    matrix_algebra,
)
from homotopyalg.documents import document_to_algebra, parse_document
from homotopyalg.graded import GradedSpace
from homotopyalg.linfty import LInftyAlgebra, lie_homology, make_inner
from homotopyalg.lqt import expand_exterior, verify_lqt
from homotopyalg.rational_linalg import kernel

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

POINT = GradedSpace(["a"], [0])
PAIR = GradedSpace(["a", "b"], [0, 0])


def no_boundary(q, key):
    return {}


def ground_field():
    return from_associative(["1"], {(0, 0): {0: 1}}, unit=0, name="K")


def ground_field_model():
    return PermutationModel(ground_field(), 2)


def fixture_algebra(name):
    return document_to_algebra(parse_document(
        (FIXTURES / f"{name}.alg").read_text(encoding="utf-8")))


def ut2():
    return fixture_algebra("ut2")


def sl2():
    return fixture_algebra("sl2")


def not_a_generator(value):
    return (f"a generator must be a basis index in range(3) or a dict over "
            f"such indices, got {value!r}")


@pytest.mark.parametrize("build,message", [
    (lambda: AInftyAlgebra(POINT, {0: {(): {0: 1}}}),
     "operations must have arity >= 1"),
    (lambda: AInftyAlgebra(POINT, {2: {(0,): {0: 1}}}),
     "arity 2 entry has 1 inputs"),
    (lambda: AInftyAlgebra(POINT, {}, unit=1),
     "a unit must be a basis index in range(1), got 1"),
    # a unit is an int index, not a bool, a float or a label
    (lambda: AInftyAlgebra(PAIR, {}, unit=False),
     "a unit must be a basis index in range(2), got False"),
    (lambda: AInftyAlgebra(PAIR, {}, unit=0.0),
     "a unit must be a basis index in range(2), got 0.0"),
    (lambda: AInftyAlgebra(PAIR, {}, unit=True),
     "a unit must be a basis index in range(2), got True"),
    (lambda: AInftyAlgebra(PAIR, {}, unit=1.0),
     "a unit must be a basis index in range(2), got 1.0"),
    (lambda: AInftyAlgebra(PAIR, {}, unit="1"),
     "a unit must be a basis index in range(2), got '1'"),
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
    # a size or a degree is an int, not a bool or a float, and is never
    # cut down to one
    (lambda: gl_coinvariant_model(ground_field_model(), 2.5),
     "matrix size must be an integer >= 1, got 2.5"),
    (lambda: matrix_algebra(ground_field(), True),
     "matrix size must be an integer >= 1, got True"),
    (lambda: verify_lqt(ground_field(), [2.7, 3.2], 3),
     "matrix sizes must be integers >= 1"),
    (lambda: verify_lqt(ground_field(), [True], 2),
     "matrix sizes must be integers >= 1"),
    (lambda: verify_lqt(ground_field(), [2], -1),
     "max_degree must be an integer >= 0, got -1"),
    (lambda: verify_lqt(ground_field(), [2], 2.5),
     "max_degree must be an integer >= 0, got 2.5"),
    # the arguments are refused before the base is looked at
    (lambda: verify_lqt(from_associative(["x"], {(0, 0): {}}), [2], -1),
     "max_degree must be an integer >= 0, got -1"),
    # every bound is an int >= 0, not a bool or a float, refused before
    # anything is built
    (lambda: GradedSpace(["a"], [True]),
     "unsuspended degrees must be integers >= 0, got True"),
    (lambda: PermutationModel(ground_field(), True),
     "max_degree must be an integer >= 0, got True"),
    (lambda: PermutationModel(ground_field(), -1),
     "max_degree must be an integer >= 0, got -1"),
    (lambda: PermutationModel(ground_field(), 2.5),
     "max_degree must be an integer >= 0, got 2.5"),
    (lambda: cyclic_homology(ground_field(), -1),
     "max_degree must be an integer >= 0, got -1"),
    (lambda: cyclic_homology(ground_field(), 2.5),
     "max_degree must be an integer >= 0, got 2.5"),
    (lambda: cyclic_homology(ground_field(), True),
     "max_degree must be an integer >= 0, got True"),
    (lambda: cyclic_homology(ground_field(), 3, max_weight=-1),
     "max_weight must be an integer >= 0, got -1"),
    (lambda: lie_homology(gl(ground_field(), 1), -1),
     "max_degree must be an integer >= 0, got -1"),
    (lambda: lie_homology(gl(ground_field(), 1), 3, max_weight=True),
     "max_weight must be an integer >= 0, got True"),
    (lambda: expand_exterior(cyclic_homology(ground_field(), 3), -1),
     "max_degree must be an integer >= 0, got -1"),
    (lambda: check_stasheff(ut2(), -1),
     "max_arity must be an integer >= 0, got -1"),
    (lambda: lie_ify(ut2(), cap=-1), "cap must be an integer >= 0, got -1"),
    # a generator is an in-range basis index, not a bool, or a dict of them
    (lambda: make_inner(sl2(), True), not_a_generator(True)),
    (lambda: make_inner(sl2(), 7), not_a_generator(7)),
    (lambda: make_inner(sl2(), "e"), not_a_generator("e")),
    (lambda: make_inner(sl2(), {0: 1, 3: 1}), not_a_generator({0: 1, 3: 1})),
    (lambda: lie_homology(sl2(), 3, h=[True]), not_a_generator(True)),
    (lambda: bracket(sl2().coderivation, sl2().coderivation, max_arity=-1),
     "max_arity must be an integer >= 0, got -1"),
], ids=["arity-0", "input-count", "unit-index", "unit-false", "unit-float-0",
        "unit-true", "unit-float-1", "unit-label", "space-lengths",
        "kernel-coordinate", "complex-key", "complex-block",
        "inhomogeneous-generator", "size-0", "corner-float-size",
        "matrix-bool-size", "lqt-float-sizes", "lqt-bool-size",
        "lqt-negative-degree", "lqt-float-degree", "lqt-degree-before-base",
        "space-bool-degree", "stable-bool-degree", "stable-negative-degree",
        "stable-float-degree", "hc-negative-degree", "hc-float-degree",
        "hc-bool-degree", "hc-negative-weight", "ce-negative-degree",
        "ce-bool-weight", "exterior-negative-degree",
        "stasheff-negative-arity", "lieify-negative-cap",
        "inner-bool-generator", "inner-index-out-of-range",
        "inner-label-generator", "inner-dict-out-of-range",
        "coinvariants-bool-generator", "bracket-negative-arity"])
def test_malformed_argument_is_refused(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
