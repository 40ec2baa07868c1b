"""Batch command-line interface.

One command per process: parse a structure-description document, run a
check or a homology computation, and write a single machine-readable
JSON payload to standard output.  All diagnostics go to standard error.
Outputs carry no timestamps and all dictionaries are emitted with sorted
keys, so identical invocations produce byte-identical payloads.

Exit codes: 0 success; 1 validation failure (unreadable, malformed, or
unsuitable input, or a usage error), always a `DocumentError`; 2
mathematical violation (a certification failed or a comparison reported
a mismatch); 3 a cap declared in the document is exceeded by the
request.  An internal cross-check that fails (`InconsistencyError`), or
any other exception past validation, is a fault of the package, not of
the input, and is left to surface as a crash; `main` re-raises a
`ValueError` from a computation as `InconsistencyError`.
"""

from __future__ import annotations

import argparse
import sys

# documents imports ainfty for every command; each handler imports the
# other modules it runs, so that a command compiles only those
from .ainfty import (
    check_stasheff,
    check_strict_unit,
    cyclic_homology,
    cyclic_letters,
)
from .documents import (
    DocumentError,
    algebra_to_document,
    canonical_json,
    document_to_algebra,
    document_to_data,
    parse_document,
)
from .graded import is_bound

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VIOLATION = 2
EXIT_CAP = 3


class CapExceeded(Exception):
    """The request needs more than the document's declared caps allow."""


def _fail(code, messages):
    for msg in messages:
        print(f"error: {msg}", file=sys.stderr)
    return code


def _element_terms(labels, value):
    return [[str(c), labels[i]] for i, c in sorted(value.items())]


def _witness_data(labels, witness):
    if witness is None:
        return None
    arity, word, defect = witness
    return {
        "arity": arity,
        "inputs": [labels[i] for i in word],
        "defect": _element_terms(labels, defect),
    }


def _payload(args, doc, caps, tables, verdicts, body="tables", **inputs):
    """A command's payload: the inputs echo (file, name, kind and any extra
    keys), the caps it ran under, its tables under `body` (lieify puts its
    document there) and its verdicts."""
    return {
        "inputs": {"file": args.document, "name": doc.name, "kind": doc.kind,
                   **inputs},
        "caps": caps,
        body: tables,
        "verdicts": verdicts,
    }


def _violation(args, doc, caps, structure):
    """The payload and exit code of a document whose structure failed
    certification, with the witness."""
    return _payload(args, doc, caps, {}, {
        "structure": "violation",
        "witness": _witness_data(doc.space.labels, structure.witness),
    }), EXIT_VIOLATION


def _betti_payload(args, doc, caps, name, table, **inputs):
    """The payload of a Betti table through the requested degree."""
    rows = [[q, table.dims.get(q, 0), bool(table.exact.get(q, False))]
            for q in range(args.max_degree + 1)]
    tables = {name: {"header": ["degree", "dim", "exact"], "rows": rows}}
    return _payload(args, doc, caps, tables, {}, **inputs), EXIT_OK


def _degree_caps(args, doc, needed):
    """The weight cap to compute under and the caps echo, or a CapExceeded.

    The requested degree may not exceed the document's degree cap.  An
    explicit --max-weight is honored as long as the document allows it
    (exactness flags report any truncation honestly); without the flag, a
    document whose declared weight cap is below the weight `needed` for an
    exact answer at the requested degree refuses the request, and offers
    the flag only to a command that has it.
    """
    max_degree = args.max_degree
    flag_weight = getattr(args, "max_weight", None)
    cap = doc.caps.get("max_degree")
    if cap is not None and max_degree > cap:
        raise CapExceeded(
            f"requested degree {max_degree} exceeds the document cap "
            f"max_degree={cap}")
    doc_cap = doc.caps.get("max_weight")
    if flag_weight is not None:
        if doc_cap is not None and flag_weight > doc_cap:
            raise CapExceeded(
                f"--max-weight {flag_weight} exceeds the document cap "
                f"max_weight={doc_cap}")
        return flag_weight, {"max_degree": max_degree,
                             "max_weight": flag_weight}
    if doc_cap is not None and doc_cap < needed:
        advice = (f"; pass --max-weight {doc_cap} to accept a truncated "
                  "computation" if hasattr(args, "max_weight") else "")
        raise CapExceeded(
            f"an exact answer at this degree needs words of weight "
            f"{needed}, but the document caps weight at {doc_cap}{advice}")
    return None, {"max_degree": max_degree}


def _arity_cap(args, doc):
    """The arity cap to certify under and the caps echo, or a CapExceeded:
    --max-arity if given (within the document's cap), else that cap."""
    flag_arity, doc_cap = args.max_arity, doc.caps.get("max_arity")
    if flag_arity is not None and doc_cap is not None and flag_arity > doc_cap:
        raise CapExceeded(
            f"--max-arity {flag_arity} exceeds the document cap "
            f"max_arity={doc_cap}")
    cap = flag_arity if flag_arity is not None else doc_cap
    return cap, {} if cap is None else {"max_arity": cap}


def _load(args):
    try:
        with open(args.document, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DocumentError([(args.document, exc.strerror or str(exc))])
    except UnicodeDecodeError as exc:
        raise DocumentError([(args.document, f"not UTF-8 text: {exc}")])
    return parse_document(text)


def _unit_verdicts(doc, alg):
    """The unit verdict of a document: absent, ok, or a violation with the
    first failure of `check_strict_unit` as its witness."""
    if doc.unit is None:
        return {"unit": "absent"}
    unitality = check_strict_unit(alg)
    if unitality:
        return {"unit": "ok"}
    reason, arity, word = unitality.failures[0]
    return {"unit": "violation", "unit_witness": {
        "reason": reason, "arity": arity,
        "inputs": [doc.space.labels[i] for i in word]}}


def _cmd_check(args):
    doc = _load(args)
    cap, caps = _arity_cap(args, doc)
    alg = document_to_algebra(doc)
    if doc.kind == "linfty":
        from .linfty import check_linfty
        report = check_linfty(alg, cap)
    else:
        report = check_stasheff(alg, cap)
    verdicts = {
        "structure": "ok" if report.ok else "violation",
        "complete": report.complete,
        "witness": _witness_data(doc.space.labels, report.witness),
    }
    unit = _unit_verdicts(doc, alg)
    verdicts.update(unit)
    ok = report.ok and "unit_witness" not in unit
    return (_payload(args, doc, caps, {}, verdicts),
            EXIT_OK if ok else EXIT_VIOLATION)


def _cmd_lieify(args):
    from .constructions import lie_ify

    doc = _load(args)
    if doc.kind == "linfty":
        raise DocumentError(
            [("kind", "the document is already of kind linfty")])
    cap, caps = _arity_cap(args, doc)
    alg = document_to_algebra(doc)
    structure = check_stasheff(alg, cap)
    if not structure:
        return _violation(args, doc, caps, structure)
    lie = lie_ify(alg, cap=cap)
    out_doc = document_to_data(algebra_to_document(lie, caps=doc.caps))
    return _payload(args, doc, caps, out_doc, {"structure": "ok"},
                    body="document"), EXIT_OK


def _cmd_hc(args):
    doc = _load(args)
    if doc.kind == "linfty":
        raise DocumentError([("kind",
            "cyclic homology takes an associative-flavor document "
            "(kind associative, dga, or ainfty)")])
    weight, caps = _degree_caps(args, doc, cyclic_letters(args.max_degree))
    alg = document_to_algebra(doc)
    structure = check_stasheff(alg)
    if not structure:
        return _violation(args, doc, caps, structure)
    table = cyclic_homology(alg, args.max_degree, max_weight=weight)
    return _betti_payload(args, doc, caps, "hc", table)


def _cmd_ce(args):
    from .linfty import SubalgebraError, ce_letters, check_linfty, lie_homology

    doc = _load(args)
    if doc.kind != "linfty":
        raise DocumentError([("kind",
            "Chevalley-Eilenberg homology takes a kind-linfty document; "
            "derive one from an associative-flavor input with `lieify`")])
    weight, caps = _degree_caps(args, doc, ce_letters(args.max_degree))
    h = None
    if args.coinvariants is not None:
        index_of = {label: i for i, label in enumerate(doc.space.labels)}
        h = []
        for label in args.coinvariants.split(","):
            label = label.strip()
            if label not in index_of:
                raise DocumentError(
                    [("--coinvariants", f"unknown label {label!r}")])
            h.append(index_of[label])
    alg = document_to_algebra(doc)
    structure = check_linfty(alg)
    if not structure:
        return _violation(args, doc, caps, structure)
    try:
        table = lie_homology(alg, args.max_degree, max_weight=weight, h=h)
    except SubalgebraError as exc:
        raise DocumentError([("--coinvariants", str(exc))]) from None
    return _betti_payload(args, doc, caps, "ce", table,
                          **({} if h is None
                             else {"coinvariants": args.coinvariants}))


def _hopf_data(hopf):
    if isinstance(hopf, str):
        return hopf
    return {
        "ok": hopf.ok,
        "sizes": [hopf.n],
        "unit": "ok" if hopf.unit_ok else "violation",
        "checked_pairs": hopf.checked_pairs,
        "checked_triples": hopf.checked_triples,
        "commutative_violations": len(hopf.commutative_violations),
        "associative_violations": len(hopf.associative_violations),
        # the product runs on a stable model, so no triple is unstable;
        # the key stays so that the payload keeps its shape
        "unstable_triples": 0,
        "primitive_product_violations":
            len(hopf.primitive_product_violations),
    }


def _cmd_lqt(args):
    from .constructions import is_matrix_size
    from .lqt import lqt_letters, verify_lqt

    doc = _load(args)
    if doc.kind == "linfty":
        raise DocumentError(
            [("kind", "the comparison takes an associative-flavor document")])
    if doc.unit is None:
        raise DocumentError(
            [("unit", "the comparison needs a document with a unit")])
    try:
        sizes = sorted({int(part) for part in args.n.split(",") if part})
    except ValueError:
        raise DocumentError([("--n", f"not a comma list of sizes: {args.n!r}")])
    if not sizes or not all(map(is_matrix_size, sizes)):
        raise DocumentError([("--n", "matrix sizes must be integers >= 1")])
    _, caps = _degree_caps(args, doc, lqt_letters(args.max_degree))
    alg = document_to_algebra(doc)
    structure = check_stasheff(alg)
    if not structure:
        return _violation(args, doc, caps, structure)
    unit = _unit_verdicts(doc, alg)
    if "unit_witness" in unit:
        return _payload(args, doc, caps, {}, {
            "structure": "ok", **unit}), EXIT_VIOLATION
    report = verify_lqt(alg, sizes, args.max_degree)
    degrees = list(range(args.max_degree + 1))

    def dims(table, qs):
        return {"header": ["degree", "dim"],
                "rows": [[q, table.get(q, 0)] for q in qs]}

    tables = {
        "matrix_homology": [{"n": n, **dims(report.left[n], degrees)}
                            for n in report.sizes],
        "exterior_on_cyclic": dims(report.right, degrees),
        "cyclic_homology": dims(report.hc_dims, sorted(report.hc_dims)),
        "primitives": dims(report.primitive_dims, degrees),
    }
    verdicts = {
        "comparison": [[q, report.verdicts[q]] for q in degrees],
        "primitives": [[q, report.primitive_verdicts[q]]
                       for q in degrees if q >= 1],
        "stable_from": [[q, report.stable_from[q]] for q in degrees],
        "hopf": _hopf_data(report.hopf),
        "all_match": report.all_match,
    }
    ok = report.all_match and (isinstance(report.hopf, str) or report.hopf.ok)
    return (_payload(args, doc, caps, tables, verdicts, sizes=report.sizes),
            EXIT_OK if ok else EXIT_VIOLATION)


class _Parser(argparse.ArgumentParser):
    """Refuses a usage error as a DocumentError, not with argparse's exit 2."""

    def error(self, message):
        raise DocumentError([(self.prog, message)])


def build_parser():
    parser = _Parser(
        prog="homotopyalg",
        description="Exact homology of homotopy algebras described by "
                    "JSON structure documents.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("document", help="path to a .alg JSON document")
        p.set_defaults(func=func)
        return p

    p = command("check", _cmd_check, "certify the defining identities")
    p.add_argument("--max-arity", type=int, default=None,
                   help="verify the tower only through this arity")

    p = command("lieify", _cmd_lieify,
                "emit the L-infinity document of an associative-flavor input")
    p.add_argument("--max-arity", type=int, default=None,
                   help="truncate the symmetrized structure at this arity")

    p = command("hc", _cmd_hc, "cyclic homology table")
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("--max-weight", type=int, default=None,
                   help="truncate words at this weight (exactness flags "
                        "report the consequences)")

    p = command("ce", _cmd_ce, "Chevalley-Eilenberg homology table")
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("--max-weight", type=int, default=None)
    p.add_argument("--coinvariants", default=None, metavar="LABELS",
                   help="comma list of degree-0 basis labels spanning a "
                        "subalgebra; compute on its coinvariants")

    p = command("lqt", _cmd_lqt,
                "compare stable matrix homology with the exterior coalgebra "
                "on shifted cyclic homology")
    p.add_argument("--n", default="4",
                   help="comma list of matrix sizes whose tables are read "
                        "off the stable model through the corner inclusion "
                        "and cross-checked against it (default 4)")
    p.add_argument("--max-degree", type=int, default=4)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        for flag in ("max_degree", "max_weight", "max_arity"):
            value = getattr(args, flag, None)
            if value is not None and not is_bound(value):
                raise DocumentError([(f"--{flag.replace('_', '-')}",
                                      "must be a non-negative integer")])
        payload, code = args.func(args)
    except DocumentError as exc:
        return _fail(EXIT_VALIDATION,
                     [f"{pos}: {msg}" for pos, msg in exc.diagnostics])
    except ValueError as exc:
        # past validation, a refusal is a fault of the package; chain is
        # imported here so that `check` does not load it
        from .chain import InconsistencyError
        raise InconsistencyError(f"{args.command} failed on a validated or "
                                 f"certified input: {exc}") from exc
    except CapExceeded as exc:
        return _fail(EXIT_CAP, [str(exc)])
    sys.stdout.write(canonical_json(payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
