"""Structure-description documents: a JSON schema for graded algebras.

One schema serves all four kinds (associative, dga, ainfty, linfty);
the `kind` field selects the validation rules.  Coefficients are exact
rationals written as strings "p/q" (or "p"), degrees are unsuspended
integers >= 0, and operations are given entrywise: arity, input basis
labels, and the output as a list of (coefficient, label) terms.

Parsing either returns a validated document or raises DocumentError
carrying a list of (position, message) diagnostics - JSON syntax errors
point at a line and column, semantic errors at the JSON path of the
offending field.  Serialization is canonical (sorted operations,
normalized coefficients, stable key order), so serialize followed by
parse is the identity on valid documents and equal documents produce
byte-identical text.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .ainfty import AInftyAlgebra
from .graded import GradedSpace

__all__ = [
    "AlgebraDocument",
    "DocumentError",
    "OpEntry",
    "algebra_to_document",
    "document_to_algebra",
    "parse_document",
    "serialize_document",
]

KINDS = ("associative", "dga", "ainfty", "linfty")

ARITY_RULES = {
    "associative": frozenset([2]),
    "dga": frozenset([1, 2]),
}


class DocumentError(ValueError):
    """Validation failure with positioned diagnostics.

    `diagnostics` is a list of (position, message) pairs; the position
    is "line L, column C" for syntax errors and a JSON path such as
    "ops[3].output[1]" for semantic ones.
    """

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(f"{p}: {m}" for p, m in self.diagnostics))


class OpEntry:
    """One operation entry: m_arity(inputs) = sum of coeff * label.
    Entries compare by value."""

    def __init__(self, arity, inputs, output):
        self.arity = arity
        self.inputs = inputs
        self.output = output  # of (Fraction, label)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.arity, self.inputs, self.output) == \
            (other.arity, other.inputs, other.output)


class AlgebraDocument:
    """A validated structure description.

    Invariants established at construction time: every label resolves,
    no operation entry repeats, the inputs of a linfty bracket are in
    basis order and repeat only labels of odd degree, coefficients are
    exact rationals, and every output term raises the total unsuspended
    input degree by exactly arity - 2.  Documents compare by value.
    """

    def __init__(self, name, kind, basis, unit=None, ops=(), caps=None):
        self.name = name
        self.kind = kind
        self.basis = basis    # of (label, degree)
        self.unit = unit
        self.ops = ops        # of OpEntry
        self.caps = {} if caps is None else caps

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.kind, self.basis, self.unit, self.ops,
                self.caps) == (other.name, other.kind, other.basis,
                               other.unit, other.ops, other.caps)

    @property
    def labels(self):
        return tuple(label for label, _ in self.basis)

    @property
    def degrees(self):
        return tuple(deg for _, deg in self.basis)


def _parse_rational(value, path, diags):
    if isinstance(value, bool):
        diags.append((path, "non-rational coefficient"))
        return None
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            diags.append((path, f"non-rational coefficient {value!r}"))
            return None
    diags.append((path, f"non-rational coefficient of type "
                        f"{type(value).__name__} (write it as \"p/q\")"))
    return None


def document_from_data(data):
    """Validate a decoded JSON object into an AlgebraDocument."""
    diags = []
    if not isinstance(data, dict):
        raise DocumentError([("$", "the document must be a JSON object")])

    known = {"name", "kind", "basis", "unit", "ops", "caps"}
    for key in sorted(set(data) - known):
        diags.append((key, "unknown field"))

    name = data.get("name", "")
    if not isinstance(name, str):
        diags.append(("name", "must be a string"))
        name = ""
    kind = data.get("kind")
    if kind not in KINDS:
        diags.append(("kind", f"must be one of {', '.join(KINDS)}"))
        raise DocumentError(diags)

    basis = []
    index_of = {}
    raw_basis = data.get("basis")
    if not isinstance(raw_basis, list) or not raw_basis:
        diags.append(("basis", "must be a non-empty list of [label, degree]"))
        raise DocumentError(diags)
    for i, item in enumerate(raw_basis):
        path = f"basis[{i}]"
        if (not isinstance(item, (list, tuple)) or len(item) != 2
                or not isinstance(item[0], str) or not item[0]
                or isinstance(item[1], bool) or not isinstance(item[1], int)):
            diags.append((path, "must be a [label, integer degree] pair"))
            continue
        label, degree = item
        if label in index_of:
            diags.append((path, f"duplicate basis label {label!r}"))
            continue
        index_of[label] = len(basis)
        basis.append((label, degree))
        if degree < 0:
            diags.append((path, f"degree {degree} is negative; degrees are "
                                "unsuspended integers >= 0"))
        elif kind == "associative" and degree != 0:
            diags.append((path, "an associative algebra must be "
                                "concentrated in degree 0"))

    unit = data.get("unit")
    if unit is not None:
        if not isinstance(unit, str) or unit not in index_of:
            diags.append(("unit", f"unknown label {unit!r}"))
            unit = None
        elif kind == "linfty":
            diags.append(("unit", "a unit is not meaningful for kind linfty"))
            unit = None
        elif basis[index_of[unit]][1] != 0:
            diags.append(("unit", "the unit must have degree 0"))

    ops = []
    seen = {}
    raw_ops = data.get("ops", [])
    if not isinstance(raw_ops, list):
        diags.append(("ops", "must be a list of operation entries"))
        raw_ops = []
    for i, entry in enumerate(raw_ops):
        path = f"ops[{i}]"
        if not isinstance(entry, dict):
            diags.append((path, "must be an object with arity, inputs, output"))
            continue
        for key in sorted(set(entry) - {"arity", "inputs", "output"}):
            diags.append((f"{path}.{key}", "unknown field"))
        arity = entry.get("arity")
        if isinstance(arity, bool) or not isinstance(arity, int) or arity < 1:
            diags.append((f"{path}.arity", "must be an integer >= 1"))
            continue
        allowed = ARITY_RULES.get(kind)
        if allowed is not None and arity not in allowed:
            diags.append((f"{path}.arity",
                          f"kind {kind} allows arities "
                          f"{sorted(allowed)}, got {arity}"))
            continue
        inputs = entry.get("inputs")
        if not isinstance(inputs, list) or len(inputs) != arity:
            diags.append((f"{path}.inputs",
                          f"must list exactly {arity} basis labels"))
            continue
        ok = True
        for j, label in enumerate(inputs):
            if not isinstance(label, str) or label not in index_of:
                diags.append((f"{path}.inputs[{j}]",
                              f"unknown label {label!r}"))
                ok = False
        if not ok:
            continue
        word = tuple(index_of[s] for s in inputs)
        if kind == "linfty" and tuple(sorted(word)) != word:
            diags.append((f"{path}.inputs",
                          "bracket inputs must be listed in basis order"))
            continue
        if kind == "linfty" and any(a == b and basis[a][1] % 2 == 0
                                    for a, b in zip(word, word[1:])):
            diags.append((f"{path}.inputs", "a bracket input may repeat "
                          "only when its degree is odd"))
            continue
        key = (arity, word)
        if key in seen:
            diags.append((path, f"duplicate op entry: already given at "
                                f"ops[{seen[key]}]"))
            continue
        seen[key] = i
        in_degree = sum(basis[t][1] for t in word)
        raw_output = entry.get("output")
        if not isinstance(raw_output, list):
            diags.append((f"{path}.output",
                          "must be a list of [coefficient, label] terms"))
            continue
        output = []
        for j, term in enumerate(raw_output):
            tpath = f"{path}.output[{j}]"
            if not isinstance(term, (list, tuple)) or len(term) != 2:
                diags.append((tpath, "must be a [coefficient, label] pair"))
                continue
            coeff = _parse_rational(term[0], tpath, diags)
            if coeff is None:
                continue
            label = term[1]
            if not isinstance(label, str) or label not in index_of:
                diags.append((tpath, f"unknown label {label!r}"))
                continue
            out_degree = basis[index_of[label]][1]
            if out_degree != in_degree + arity - 2:
                diags.append((tpath,
                              f"degree-parity violation: an arity-{arity} "
                              f"operation must raise degree by {arity - 2}, "
                              f"but {label!r} has degree {out_degree} over "
                              f"total input degree {in_degree}"))
                continue
            if coeff:
                output.append((coeff, label))
        ops.append(OpEntry(arity, tuple(inputs), tuple(output)))

    caps = data.get("caps", {})
    if caps is None:
        caps = {}
    if not isinstance(caps, dict):
        diags.append(("caps", "must be an object"))
        caps = {}
    else:
        for key in sorted(caps):
            if key not in {"max_weight", "max_degree", "max_arity"}:
                diags.append((f"caps.{key}", "unknown cap"))
            elif isinstance(caps[key], bool) or not isinstance(caps[key], int) \
                    or caps[key] < 0:
                diags.append((f"caps.{key}", "must be a non-negative integer"))
        caps = {k: v for k, v in caps.items()
                if k in {"max_weight", "max_degree", "max_arity"}
                and isinstance(v, int) and not isinstance(v, bool) and v >= 0}

    if diags:
        raise DocumentError(diags)
    ops.sort(key=lambda e: (e.arity, tuple(index_of[s] for s in e.inputs)))
    return AlgebraDocument(name=name, kind=kind, basis=tuple(basis),
                           unit=unit, ops=tuple(ops), caps=dict(caps))


def parse_document(text):
    """Parse JSON text into a validated AlgebraDocument.

    Raises DocumentError with line/column diagnostics for malformed
    JSON, a diagnostic at `$` for JSON the interpreter cannot read (an
    overlong integer literal, nesting deeper than its recursion limit) and
    JSON-path diagnostics for semantic violations.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            [(f"line {exc.lineno}, column {exc.colno}", exc.msg)]) from None
    except ValueError as exc:
        # an integer literal too long for the interpreter to convert
        raise DocumentError([("$", str(exc))]) from None
    except RecursionError:
        raise DocumentError([("$", "arrays or objects nested too deeply")]) \
            from None
    return document_from_data(data)


def document_to_data(doc):
    """The canonical JSON-compatible form of a document."""
    index_of = {label: i for i, (label, _) in enumerate(doc.basis)}
    ops = sorted(doc.ops,
                 key=lambda e: (e.arity, tuple(index_of[s] for s in e.inputs)))
    data = {
        "name": doc.name,
        "kind": doc.kind,
        "basis": [[label, degree] for label, degree in doc.basis],
        "ops": [{
            "arity": entry.arity,
            "inputs": list(entry.inputs),
            "output": [[str(c), label] for c, label in sorted(
                entry.output, key=lambda t: index_of[t[1]])],
        } for entry in ops],
    }
    if doc.unit is not None:
        data["unit"] = doc.unit
    if doc.caps:
        data["caps"] = {k: doc.caps[k] for k in sorted(doc.caps)}
    return data


def serialize_document(doc):
    """Canonical UTF-8 JSON text; parse(serialize(doc)) == doc."""
    return json.dumps(document_to_data(doc), indent=2, sort_keys=True,
                      ensure_ascii=False) + "\n"


def document_to_algebra(doc):
    """Build the structure a document describes.

    Returns an LInftyAlgebra for kind linfty and an AInftyAlgebra
    otherwise.  No certification runs here: a document may describe a
    structure that fails its defining identities, and discovering that
    is the job of the checking command.
    """
    index_of = {label: i for i, (label, _) in enumerate(doc.basis)}
    ops = {}
    for entry in doc.ops:
        word = tuple(index_of[s] for s in entry.inputs)
        value = {index_of[label]: coeff for coeff, label in entry.output}
        ops.setdefault(entry.arity, {})[word] = value
    space = GradedSpace(doc.labels, doc.degrees)
    if doc.kind == "linfty":
        from .linfty import LInftyAlgebra
        return LInftyAlgebra(space, ops, name=doc.name)
    unit = index_of[doc.unit] if doc.unit is not None else None
    return AInftyAlgebra(space, ops, unit=unit, name=doc.name)


def _classify(alg):
    if alg.coderivation.symmetric:
        return "linfty"
    arities = set(alg.ops)
    if arities <= {2} and set(alg.space.degrees) <= {0}:
        return "associative"
    if arities <= {1, 2}:
        return "dga"
    return "ainfty"


def algebra_to_document(alg, caps=None):
    """Express an algebra back in the document schema."""
    labels = alg.space.labels
    basis = tuple((label, alg.space.degrees[i])
                  for i, label in enumerate(labels))
    entries = []
    for arity in sorted(alg.ops):
        for word in sorted(alg.ops[arity]):
            value = alg.ops[arity][word]
            output = tuple(sorted(((Fraction(c), labels[i])
                                   for i, c in value.items() if Fraction(c)),
                                  key=lambda t: labels.index(t[1])))
            if output:
                entries.append(OpEntry(arity,
                                       tuple(labels[i] for i in word), output))
    unit = None
    if getattr(alg, "unit", None) is not None:
        unit = labels[alg.unit]
    return AlgebraDocument(name=alg.name, kind=_classify(alg), basis=basis,
                           unit=unit, ops=tuple(entries),
                           caps=dict(caps or {}))
