"""Tests for the JSON structure-document format."""

import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from homotopyalg.ainfty import AInftyAlgebra
from homotopyalg.cli import main
from homotopyalg.constructions import lie_ify
from homotopyalg.documents import (
    AlgebraDocument,
    DocumentError,
    algebra_to_document,
    document_to_algebra,
    parse_document,
    serialize_document,
)
from homotopyalg.graded import GradedSpace
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
    assert doc.space == GradedSpace(("1",), (0,))
    assert doc.unit == 0
    assert doc.ops == {2: {(0, 0): {0: Fraction(1)}}}


def nonempty(ops):
    """An operation table without its empty entries and empty arities."""
    ops = {k: {w: v for w, v in table.items() if v} for k, table in ops.items()}
    return {k: table for k, table in ops.items() if table}


def test_every_fixture_round_trips():
    for path in sorted(FIXTURES.glob("*.alg")):
        doc = parse_document(path.read_text(encoding="utf-8"))
        again = parse_document(serialize_document(doc))
        assert again == doc, path.name


def test_every_fixture_builds_from_its_own_table():
    for path in sorted(FIXTURES.glob("*.alg")):
        doc = parse_document(path.read_text(encoding="utf-8"))
        alg = document_to_algebra(doc)
        assert alg.space == doc.space, path.name
        assert alg.ops == nonempty(doc.ops), path.name


LABELS = ("e", "x", "1", "é")
ARITIES = {"associative": (2,), "dga": (1, 2),
           "ainfty": (1, 2, 3), "linfty": (1, 2, 3)}
COEFFICIENTS = st.one_of(st.just(Fraction(0)),
                         st.fractions(-3, 3, max_denominator=4))


@st.composite
def drawn_documents(draw, kind):
    """A valid document of the kind on up to three basis elements, as JSON
    data with its entries and their terms in a drawn order, and the same
    data with both reversed.

    Degrees 0..2 give letters of both parities; an entry is drawn on each
    admissible word (ascending, repeating only odd letters, for linfty),
    with a term on every label of the right degree, whose rational
    coefficient may vanish."""
    labels = draw(st.permutations(LABELS))[:draw(st.integers(1, 3))]
    top = 0 if kind == "associative" else 2
    degrees = [draw(st.integers(0, top)) for _ in labels]
    entries = []
    for k in draw(st.sets(st.sampled_from(ARITIES[kind]), min_size=1)):
        if kind == "linfty":
            words = [w for w in itertools.combinations_with_replacement(
                range(len(labels)), k)
                if all(a != b or degrees[a] % 2 for a, b in zip(w, w[1:]))]
        else:
            words = itertools.product(range(len(labels)), repeat=k)
        for word in words:
            if not draw(st.booleans()):
                continue
            target = sum(degrees[i] for i in word) + k - 2
            hits = [i for i in range(len(labels)) if degrees[i] == target]
            entries.append({"arity": k,
                            "inputs": [labels[i] for i in word],
                            "output": [[str(draw(COEFFICIENTS)), labels[i]]
                                       for i in draw(st.permutations(hits))]})
    data = {"name": "drawn", "kind": kind,
            "basis": [[label, d] for label, d in zip(labels, degrees)],
            "ops": draw(st.permutations(entries))}
    units = [label for label, d in zip(labels, degrees) if d == 0]
    if kind != "linfty" and units and draw(st.booleans()):
        data["unit"] = draw(st.sampled_from(units))
    data["caps"] = draw(st.dictionaries(
        st.sampled_from(["max_weight", "max_degree", "max_arity"]),
        st.integers(0, 5), max_size=2))
    return data, dict(data, ops=[dict(entry, output=entry["output"][::-1])
                                 for entry in data["ops"][::-1]])


@pytest.mark.parametrize("kind", sorted(ARITIES))
@settings(derandomize=True, deadline=None, max_examples=30)
@given(drawn=st.data())
def test_drawn_documents_have_one_table(kind, drawn):
    data, reordered = drawn.draw(drawn_documents(kind))
    doc = parse_document(json.dumps(data))
    text = serialize_document(doc)
    assert parse_document(text) == doc
    assert serialize_document(parse_document(json.dumps(reordered))) == text
    alg = document_to_algebra(doc)
    assert alg.space == doc.space
    assert alg.ops == nonempty(doc.ops)
    assert getattr(alg, "unit", None) == doc.unit


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
    assert doc.ops[2][(0, 0)] == {0: Fraction(-3, 7)}
    assert '"-3/7"' in serialize_document(doc)


def test_integer_coefficients_accepted():
    data = base_doc()
    data["ops"][0]["output"] = [[2, "1"]]
    doc = parse_document(json.dumps(data))
    assert doc.ops[2][(0, 0)] == {0: Fraction(2)}


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


@pytest.mark.parametrize("output", [
    [["1", "1"], ["1", "1"]],
    [["0", "1"], ["1", "1"]],
])
def test_repeated_output_label(output):
    # two terms on one label would be summed by one reading and overwritten
    # by another, so a label may appear once per output
    data = base_doc()
    data["ops"][0]["output"] = output
    assert diagnostics_of(data) == [
        ("ops[0].output[1]",
         "repeated output label '1': already given at ops[0].output[0]")]


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


def replaced(path, value):
    """The base document with the value at `path`, a sequence of keys and
    indices, replaced by `value`; the empty path replaces the document."""
    if not path:
        return value
    data = target = base_doc()
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return data


@pytest.mark.parametrize("path,value,position,message", [
    (("ops", 0, "output", 0, 0), True, "ops[0].output[0]",
     "non-rational coefficient"),
    ((), [base_doc()], "$", "the document must be a JSON object"),
    (("name",), 5, "name", "must be a string"),
    (("basis",), "1", "basis", "must be a non-empty list of [label, degree]"),
    (("basis",), [["1", 0], ["x"]], "basis[1]",
     "must be a [label, integer degree] pair"),
    (("ops",), {}, "ops", "must be a list of operation entries"),
    (("ops", 0), 5, "ops[0]", "must be an object with arity, inputs, output"),
    (("ops", 0, "label"), "m", "ops[0].label", "unknown field"),
    (("ops", 0, "arity"), 0, "ops[0].arity", "must be an integer >= 1"),
    (("ops", 0, "inputs"), ["1"], "ops[0].inputs",
     "must list exactly 2 basis labels"),
    (("ops", 0, "output"), "1", "ops[0].output",
     "must be a list of [coefficient, label] terms"),
    (("ops", 0, "output"), [["1"]], "ops[0].output[0]",
     "must be a [coefficient, label] pair"),
    (("caps",), [], "caps", "must be an object"),
])
def test_malformed_document_is_refused_at_its_position(
        capsys, tmp_path, path, value, position, message):
    data = replaced(path, value)
    assert (position, message) in diagnostics_of(data)
    doc = tmp_path / "malformed.alg"
    doc.write_text(json.dumps(data))
    assert main(["check", str(doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {position}: {message}\n" in captured.err


def test_null_caps_read_as_none():
    data = base_doc()
    data["caps"] = None
    assert parse_document(json.dumps(data)).caps == {}


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
                        space=GradedSpace(("a", "b"), (0, 1)),
                        ops=a.ops, caps={})
    assert a == b
