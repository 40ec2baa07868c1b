"""Tests for the JSON structure-document format."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from homotopyalg.ainfty import AInftyAlgebra
from homotopyalg.constructions import lie_ify
from homotopyalg.documents import (
    AlgebraDocument,
    DocumentError,
    algebra_to_document,
    document_to_algebra,
    parse_document,
    serialize_document,
)
from homotopyalg.linfty import LInftyAlgebra, check_linfty

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load(name):
    return (FIXTURES / name).read_text(encoding="utf-8")


def base_doc():
    return {
        "name": "K",
        "kind": "associative",
        "basis": [["1", 0]],
        "unit": "1",
        "ops": [{"arity": 2, "inputs": ["1", "1"], "output": [["1", "1"]]}],
    }


def diagnostics_of(data):
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(data))
    return err.value.diagnostics


# ---------------------------------------------------------------------------
# parsing and round trips


def test_ground_field_fixture_parses_clean():
    doc = parse_document(load("K.alg"))
    assert doc.name == "K"
    assert doc.kind == "associative"
    assert doc.basis == (("1", 0),)
    assert doc.unit == "1"
    assert len(doc.ops) == 1
    assert doc.ops[0].output == ((Fraction(1), "1"),)


def test_every_fixture_round_trips():
    for path in sorted(FIXTURES.glob("*.alg")):
        doc = parse_document(path.read_text(encoding="utf-8"))
        again = parse_document(serialize_document(doc))
        assert again == doc, path.name


def test_serialization_is_canonical_under_op_reordering():
    data = {
        "name": "K[e]", "kind": "associative",
        "basis": [["1", 0], ["e", 0]], "unit": "1",
        "ops": [
            {"arity": 2, "inputs": ["e", "1"], "output": [["1", "e"]]},
            {"arity": 2, "inputs": ["1", "1"], "output": [["1", "1"]]},
            {"arity": 2, "inputs": ["1", "e"], "output": [["1", "e"]]},
        ],
    }
    scrambled = parse_document(json.dumps(data))
    original = parse_document(load("dual_numbers.alg"))
    assert scrambled == original
    assert serialize_document(scrambled) == serialize_document(original)


def test_rational_coefficients_parse_exactly():
    data = base_doc()
    data["ops"][0]["output"] = [["-3/7", "1"]]
    doc = parse_document(json.dumps(data))
    assert doc.ops[0].output == ((Fraction(-3, 7), "1"),)
    assert '"-3/7"' in serialize_document(doc)


def test_integer_coefficients_accepted():
    data = base_doc()
    data["ops"][0]["output"] = [[2, "1"]]
    doc = parse_document(json.dumps(data))
    assert doc.ops[0].output == ((Fraction(2), "1"),)


# ---------------------------------------------------------------------------
# diagnostics


def test_syntax_error_reports_line_and_column():
    with pytest.raises(DocumentError) as err:
        parse_document("{\n  \"name\": ,\n}")
    (pos, _), = err.value.diagnostics
    assert pos.startswith("line 2")


def test_unknown_input_label():
    data = base_doc()
    data["ops"][0]["inputs"] = ["1", "ghost"]
    diags = diagnostics_of(data)
    assert any("ops[0].inputs[1]" == p and "ghost" in m for p, m in diags)


def test_unknown_output_label():
    data = base_doc()
    data["ops"][0]["output"] = [["1", "ghost"]]
    diags = diagnostics_of(data)
    assert any("ops[0].output[0]" == p and "ghost" in m for p, m in diags)


def test_duplicate_op_entry():
    data = base_doc()
    data["ops"].append({"arity": 2, "inputs": ["1", "1"],
                        "output": [["2", "1"]]})
    diags = diagnostics_of(data)
    assert any("duplicate op" in m for _, m in diags)


def test_non_rational_coefficient():
    data = base_doc()
    data["ops"][0]["output"] = [[0.5, "1"]]
    diags = diagnostics_of(data)
    assert any("non-rational" in m and "p/q" in m for _, m in diags)
    data["ops"][0]["output"] = [["about half", "1"]]
    assert any("non-rational" in m for _, m in diagnostics_of(data))


def test_degree_parity_violation():
    # a binary operation on degree-0 inputs landing in degree 1
    data = {
        "name": "bad", "kind": "ainfty",
        "basis": [["a", 0], ["b", 1]],
        "ops": [{"arity": 2, "inputs": ["a", "a"], "output": [["1", "b"]]}],
    }
    diags = diagnostics_of(data)
    assert any(p == "ops[0].output[0]" and "degree-parity" in m
               for p, m in diags)


def test_duplicate_basis_label():
    data = base_doc()
    data["basis"] = [["1", 0], ["1", 0]]
    assert any("duplicate basis label" in m for _, m in diagnostics_of(data))


def test_associative_kind_requires_degree_zero():
    data = base_doc()
    data["basis"] = [["1", 0], ["x", 1]]
    assert any("degree 0" in m for _, m in diagnostics_of(data))


def test_associative_kind_rejects_higher_arity():
    data = base_doc()
    data["ops"].append({"arity": 3, "inputs": ["1", "1", "1"],
                        "output": [["1", "1"]]})
    assert any("allows arities" in m for _, m in diagnostics_of(data))


def test_unit_must_resolve_and_have_degree_zero():
    data = base_doc()
    data["unit"] = "ghost"
    assert any(p == "unit" for p, _ in diagnostics_of(data))
    dga = {
        "name": "D", "kind": "dga",
        "basis": [["1", 0], ["x", 1]],
        "unit": "x",
        "ops": [],
    }
    assert any("degree 0" in m for _, m in diagnostics_of(dga))


def test_linfty_rejects_unit_and_unordered_inputs():
    data = {
        "name": "g", "kind": "linfty",
        "basis": [["h", 0], ["e", 0]],
        "unit": "h",
        "ops": [{"arity": 2, "inputs": ["e", "h"], "output": [["1", "e"]]}],
    }
    diags = diagnostics_of(data)
    assert any("not meaningful" in m for _, m in diags)
    assert any("basis order" in m for _, m in diags)


@pytest.mark.parametrize("coeff", ["1", "0"])
def test_linfty_refuses_a_repeated_input_of_even_degree(coeff):
    # a bracket is antisymmetric in inputs of even degree, so its value on
    # a repeated one is forced to vanish: the entry is refused, whatever
    # value it states
    data = {
        "name": "g", "kind": "linfty",
        "basis": [["a", 0], ["b", 0]],
        "ops": [{"arity": 2, "inputs": ["a", "a"], "output": [[coeff, "b"]]}],
    }
    diags = diagnostics_of(data)
    assert len(diags) == 1
    assert diags[0][0] == "ops[0].inputs" and "repeat" in diags[0][1]


def test_linfty_accepts_a_repeated_input_of_odd_degree():
    data = {
        "name": "g", "kind": "linfty",
        "basis": [["x", 1], ["y", 2]],
        "ops": [{"arity": 2, "inputs": ["x", "x"], "output": [["1", "y"]]}],
    }
    alg = document_to_algebra(parse_document(json.dumps(data)))
    assert alg.op_value(2, (0, 0)) == {1: 1}


def test_overlong_integer_is_a_document_error():
    text = '{"kind": "associative", "basis": [["a", ' + "1" * 5000 + ']]}'
    with pytest.raises(DocumentError) as err:
        parse_document(text)
    assert [p for p, _ in err.value.diagnostics] == ["$"]


def test_nesting_beyond_the_recursion_limit_is_a_document_error():
    text = "[" * 100_000 + "]" * 100_000
    with pytest.raises(DocumentError) as err:
        parse_document(text)
    assert [p for p, _ in err.value.diagnostics] == ["$"]


def test_unknown_kind_and_fields():
    assert any(p == "kind" for p, _ in diagnostics_of(
        {"name": "x", "kind": "group", "basis": [["1", 0]]}))
    data = base_doc()
    data["flavor"] = "strong"
    assert any(p == "flavor" and "unknown field" in m
               for p, m in diagnostics_of(data))


def test_caps_validated():
    data = base_doc()
    data["caps"] = {"max_weight": -1, "budget": 5}
    diags = diagnostics_of(data)
    assert any(p == "caps.max_weight" for p, _ in diags)
    assert any(p == "caps.budget" and "unknown cap" in m for p, m in diags)
    data["caps"] = {"max_weight": 6}
    doc = parse_document(json.dumps(data))
    assert doc.caps == {"max_weight": 6}


# ---------------------------------------------------------------------------
# documents to structures and back


def test_document_to_algebra_kinds():
    K = document_to_algebra(parse_document(load("K.alg")))
    assert isinstance(K, AInftyAlgebra)
    assert K.unit == 0 and K.ops == {2: {(0, 0): {0: Fraction(1)}}}
    sl2 = document_to_algebra(parse_document(load("sl2.alg")))
    assert isinstance(sl2, LInftyAlgebra)
    assert sl2.ops == {2: {(0, 1): {1: Fraction(2)},
                           (0, 2): {2: Fraction(-2)},
                           (1, 2): {0: Fraction(1)}}}
    dga = document_to_algebra(parse_document(load("dga2.alg")))
    assert dga.ops[1] == {(1,): {0: Fraction(1)}}


def test_nonassociative_document_builds_without_certification():
    alg = document_to_algebra(parse_document(load("nonassoc.alg")))
    assert alg.op_value(2, (0, 0)) == {1: Fraction(1)}


def test_algebra_to_document_inverts_construction():
    for name in ("K.alg", "dual_numbers.alg", "ut2.alg", "dga2.alg",
                 "m3only.alg", "sl2.alg"):
        doc = parse_document(load(name))
        assert algebra_to_document(document_to_algebra(doc)) == doc, name


def test_lieified_structure_exports_as_valid_document():
    ut2 = document_to_algebra(parse_document(load("ut2.alg")))
    lie = lie_ify(ut2)
    doc = algebra_to_document(lie)
    assert doc.kind == "linfty" and doc.unit is None
    again = parse_document(serialize_document(doc))
    assert again == doc
    assert check_linfty(document_to_algebra(again)).ok


def test_document_equality_is_structural():
    a = parse_document(load("m3only.alg"))
    b = AlgebraDocument(name="m3only", kind="ainfty",
                        basis=(("a", 0), ("b", 1)),
                        ops=a.ops, caps={})
    assert a == b
