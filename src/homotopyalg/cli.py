"""Batch command-line interface.

One command per process: parse a structure-description document, run a
check or a homology computation, and write a single machine-readable
JSON payload (or aligned-column text) to standard output.  All
diagnostics go to standard error.  Outputs carry no timestamps and all
dictionaries are emitted with sorted keys, so identical invocations
produce byte-identical payloads.

Exit codes: 0 success; 1 validation failure (unreadable, malformed, or
unsuitable input); 2 mathematical violation (a certification failed or
a comparison reported a mismatch); 3 a cap declared in the document is
exceeded by the request.  An internal cross-check that fails
(`InconsistencyError`) is a fault of the package, not of the input, and
is left to surface as a crash.
"""

from __future__ import annotations

import argparse
import json
import sys

# documents imports ainfty for every command; each handler imports the
# other modules it runs, so that a command compiles only those
from .ainfty import check_stasheff, check_strict_unit, cyclic_homology
from .documents import (
    DocumentError,
    algebra_to_document,
    document_to_algebra,
    document_to_data,
    parse_document,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VIOLATION = 2
EXIT_CAP = 3


class CapExceeded(Exception):
    """The request needs more than the document's declared caps allow."""


class InputUnsuitable(Exception):
    """The document is valid but not of a kind this command accepts."""


def _fail(stream, code, messages):
    for msg in messages:
        print(f"error: {msg}", file=stream)
    return code


def _emit(payload, fmt, out):
    if fmt == "json":
        out.write(json.dumps(payload, indent=2, sort_keys=True,
                             ensure_ascii=False) + "\n")
    else:
        out.write(_render_text(payload))


def _render_rows(rows, header):
    widths = [len(h) for h in header]
    table = [header] + [[str(c) for c in row] for row in rows]
    for row in table:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    for i, row in enumerate(table):
        lines.append("  ".join(cell.ljust(w)
                               for cell, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def _render_text(payload):
    lines = []
    inputs = payload.get("inputs", {})
    if inputs:
        lines.append(" ".join(f"{k}={inputs[k]}" for k in sorted(inputs)))
    caps = payload.get("caps", {})
    if caps:
        lines.append("caps: " + " ".join(
            f"{k}={caps[k]}" for k in sorted(caps)))
    out = "\n".join(lines)
    if out:
        out += "\n"
    if "document" in payload:
        out += json.dumps(payload["document"], indent=2, sort_keys=True,
                          ensure_ascii=False) + "\n"
    for name in sorted(payload.get("tables", {})):
        table = payload["tables"][name]
        out += f"\n{name}\n"
        if isinstance(table, dict) and "rows" in table:
            out += _render_rows(table["rows"], table["header"])
        else:
            for entry in table:
                out += f"  n={entry['n']}\n"
                out += _render_rows(entry["rows"], entry["header"])
    verdicts = payload.get("verdicts", {})
    if verdicts:
        out += "\nverdicts\n"
        for key in sorted(verdicts):
            value = verdicts[key]
            if isinstance(value, list):
                for item in value:
                    out += f"  {key}[{item[0]}]: {item[1]}\n"
            else:
                out += f"  {key}: {json.dumps(value, sort_keys=True)}\n"
    return out


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


def _violation(args, doc, caps, structure):
    """The payload and exit code of a document whose structure failed
    certification, with the witness."""
    return {
        "inputs": {"file": args.document, "name": doc.name, "kind": doc.kind},
        "caps": caps,
        "tables": {},
        "verdicts": {"structure": "violation",
                     "witness": _witness_data(doc.labels, structure.witness)},
    }, EXIT_VIOLATION


def _betti_rows(table, degrees):
    return [[q, table.dims.get(q, 0), bool(table.exact.get(q, False))]
            for q in degrees]


def _check_degree_cap(doc, max_degree):
    cap = doc.caps.get("max_degree")
    if cap is not None and max_degree > cap:
        raise CapExceeded(
            f"requested degree {max_degree} exceeds the document cap "
            f"max_degree={cap}")


def _effective_weight(doc, flag_weight, needed):
    """The weight cap to compute under, or a CapExceeded.

    An explicit --max-weight is honored as long as the document allows
    it (exactness flags report any truncation honestly); without the
    flag, a document whose declared weight cap cannot support an exact
    answer at the requested degree refuses the request.
    """
    doc_cap = doc.caps.get("max_weight")
    if flag_weight is not None:
        if doc_cap is not None and flag_weight > doc_cap:
            raise CapExceeded(
                f"--max-weight {flag_weight} exceeds the document cap "
                f"max_weight={doc_cap}")
        return flag_weight
    if doc_cap is not None and doc_cap < needed:
        raise CapExceeded(
            f"an exact answer at this degree needs words of weight "
            f"{needed}, but the document caps weight at {doc_cap}; pass "
            f"--max-weight {doc_cap} to accept a truncated computation")
    return None


def _arity_cap(doc, flag_arity):
    doc_cap = doc.caps.get("max_arity")
    if flag_arity is not None and doc_cap is not None and flag_arity > doc_cap:
        raise CapExceeded(
            f"--max-arity {flag_arity} exceeds the document cap "
            f"max_arity={doc_cap}")
    return flag_arity if flag_arity is not None else doc_cap


def _load(args):
    try:
        with open(args.document, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DocumentError([(args.document, exc.strerror or str(exc))])
    return parse_document(text)


def _cmd_check(args):
    doc = _load(args)
    alg = document_to_algebra(doc)
    labels = doc.labels
    cap = _arity_cap(doc, args.max_arity)
    if doc.kind == "linfty":
        from .linfty import check_linfty
        report = check_linfty(alg, cap)
    else:
        report = check_stasheff(alg, cap)
    verdicts = {
        "structure": "ok" if report.ok else "violation",
        "complete": report.complete,
        "witness": _witness_data(labels, report.witness),
    }
    ok = report.ok
    if doc.kind == "linfty":
        verdicts["unit"] = "absent"
    elif doc.unit is None:
        verdicts["unit"] = "absent"
    else:
        unit_report = check_strict_unit(alg)
        if unit_report.ok:
            verdicts["unit"] = "ok"
        else:
            verdicts["unit"] = "violation"
            desc, arity, word = unit_report.failures[0]
            verdicts["unit_witness"] = {
                "reason": desc, "arity": arity,
                "inputs": [labels[i] for i in word],
            }
            ok = False
    payload = {
        "inputs": {"file": args.document, "name": doc.name, "kind": doc.kind},
        "caps": {} if cap is None else {"max_arity": cap},
        "tables": {},
        "verdicts": verdicts,
    }
    return payload, EXIT_OK if ok else EXIT_VIOLATION


def _cmd_lieify(args):
    from .constructions import lie_ify
    from .linfty import InconsistencyError

    doc = _load(args)
    if doc.kind == "linfty":
        raise InputUnsuitable("the document is already of kind linfty")
    alg = document_to_algebra(doc)
    cap = _arity_cap(doc, args.max_arity)
    caps = {} if cap is None else {"max_arity": cap}
    structure = check_stasheff(alg, cap)
    if not structure:
        return _violation(args, doc, caps, structure)
    try:
        lie = lie_ify(alg, cap=cap)
    except ValueError as exc:
        # the input is certified above: a failed certification of its
        # commutator structure is a fault of the package
        raise InconsistencyError(
            f"lie_ify failed on a certified input: {exc}") from exc
    out_doc = algebra_to_document(lie, caps=doc.caps)
    payload = {
        "inputs": {"file": args.document, "name": doc.name, "kind": doc.kind},
        "caps": caps,
        "document": document_to_data(out_doc),
        "verdicts": {"structure": "ok"},
    }
    return payload, EXIT_OK


def _cmd_hc(args):
    doc = _load(args)
    if doc.kind == "linfty":
        raise InputUnsuitable(
            "cyclic homology takes an associative-flavor document "
            "(kind associative, dga, or ainfty)")
    _check_degree_cap(doc, args.max_degree)
    weight = _effective_weight(doc, args.max_weight, args.max_degree + 2)
    caps = {"max_degree": args.max_degree,
            **({} if weight is None else {"max_weight": weight})}
    alg = document_to_algebra(doc)
    structure = check_stasheff(alg)
    if not structure:
        return _violation(args, doc, caps, structure)
    table = cyclic_homology(alg, args.max_degree, max_weight=weight)
    degrees = list(range(args.max_degree + 1))
    payload = {
        "inputs": {"file": args.document, "name": doc.name, "kind": doc.kind},
        "caps": caps,
        "tables": {"hc": {"header": ["degree", "dim", "exact"],
                          "rows": _betti_rows(table, degrees)}},
        "verdicts": {},
    }
    return payload, EXIT_OK


def _cmd_ce(args):
    from .linfty import (
        InconsistencyError,
        _check_h_closed,
        _h_elements,
        check_linfty,
        lie_homology,
    )

    doc = _load(args)
    if doc.kind != "linfty":
        raise InputUnsuitable(
            "Chevalley-Eilenberg homology takes a kind-linfty document; "
            "derive one from an associative-flavor input with `lieify`")
    _check_degree_cap(doc, args.max_degree)
    weight = _effective_weight(doc, args.max_weight, args.max_degree + 1)
    caps = {"max_degree": args.max_degree,
            **({} if weight is None else {"max_weight": weight})}
    alg = document_to_algebra(doc)
    structure = check_linfty(alg)
    if not structure:
        return _violation(args, doc, caps, structure)
    h = None
    if args.coinvariants:
        index_of = {label: i for i, label in enumerate(doc.labels)}
        h = []
        for label in args.coinvariants.split(","):
            label = label.strip()
            if label not in index_of:
                raise DocumentError(
                    [("--coinvariants", f"unknown label {label!r}")])
            h.append(index_of[label])
        try:
            _check_h_closed(alg, _h_elements(alg, h))
        except ValueError as exc:
            raise DocumentError([("--coinvariants", str(exc))]) from None
    try:
        table = lie_homology(alg, args.max_degree, max_weight=weight, h=h)
    except ValueError as exc:
        # the input is certified and h checked above: any other refusal is
        # a fault of the package
        raise InconsistencyError(
            f"lie_homology failed on a certified input: {exc}") from exc
    degrees = list(range(args.max_degree + 1))
    payload = {
        "inputs": {"file": args.document, "name": doc.name, "kind": doc.kind},
        "caps": caps,
        "tables": {"ce": {"header": ["degree", "dim", "exact"],
                          "rows": _betti_rows(table, degrees)}},
        "verdicts": {},
    }
    if h is not None:
        payload["inputs"]["coinvariants"] = args.coinvariants
    return payload, EXIT_OK


def _hopf_data(hopf):
    from .lqt import HopfProductReport

    if isinstance(hopf, HopfProductReport):
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
    return hopf


def _cmd_lqt(args):
    from .lqt import HopfProductReport, verify_lqt

    doc = _load(args)
    if doc.kind == "linfty":
        raise InputUnsuitable(
            "the comparison takes an associative-flavor document")
    if doc.unit is None:
        raise InputUnsuitable("the comparison needs a document with a unit")
    try:
        sizes = sorted({int(part) for part in args.n.split(",") if part})
    except ValueError:
        raise DocumentError([("--n", f"not a comma list of sizes: {args.n!r}")])
    if not sizes or sizes[0] < 1:
        raise DocumentError([("--n", "matrix sizes must be integers >= 1")])
    _check_degree_cap(doc, args.max_degree)
    _effective_weight(doc, None, args.max_degree + 2)
    alg = document_to_algebra(doc)
    structure = check_stasheff(alg)
    if not structure:
        return _violation(args, doc, {"max_degree": args.max_degree},
                          structure)
    unit_report = check_strict_unit(alg)
    if not unit_report:
        return {
            "inputs": {"file": args.document, "name": doc.name,
                       "kind": doc.kind},
            "caps": {"max_degree": args.max_degree},
            "tables": {},
            "verdicts": {"structure": "ok", "unit": "violation"},
        }, EXIT_VIOLATION
    report = verify_lqt(alg, sizes, args.max_degree)
    degrees = list(range(args.max_degree + 1))
    left_tables = [{
        "n": n,
        "header": ["degree", "dim"],
        "rows": [[q, report.left[n][q]] for q in degrees],
    } for n in report.sizes]
    payload = {
        "inputs": {"file": args.document, "name": doc.name, "kind": doc.kind,
                   "sizes": report.sizes},
        "caps": {"max_degree": args.max_degree},
        "tables": {
            "matrix_homology": left_tables,
            "exterior_on_cyclic": {
                "header": ["degree", "dim"],
                "rows": [[q, report.right[q]] for q in degrees]},
            "cyclic_homology": {
                "header": ["degree", "dim"],
                "rows": [[q, report.hc_dims.get(q, 0)]
                         for q in sorted(report.hc_dims)]},
            "primitives": {
                "header": ["degree", "dim"],
                "rows": [[q, report.primitive_dims.get(q, 0)]
                         for q in degrees]},
        },
        "verdicts": {
            "comparison": [[q, report.verdicts[q]] for q in degrees],
            "primitives": [[q, report.primitive_verdicts[q]]
                           for q in degrees if q >= 1],
            "stable_from": [[q, report.stable_from[q]] for q in degrees],
            "hopf": _hopf_data(report.hopf),
            "all_match": report.all_match,
        },
    }
    mismatch = ("MISMATCH" in report.verdicts.values()
                or "MISMATCH" in report.primitive_verdicts.values()
                or (isinstance(report.hopf, HopfProductReport)
                    and not report.hopf.ok))
    return payload, EXIT_VIOLATION if mismatch else EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="homotopyalg",
        description="Exact homology of homotopy algebras described by "
                    "JSON structure documents.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("document", help="path to a .alg JSON document")
        p.add_argument("--format", choices=["json", "text"], default="json",
                       help="payload format on standard output")

    p = sub.add_parser("check", help="certify the defining identities")
    common(p)
    p.add_argument("--max-arity", type=int, default=None,
                   help="verify the tower only through this arity")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("lieify",
                       help="emit the L-infinity document of an "
                            "associative-flavor input")
    common(p)
    p.add_argument("--max-arity", type=int, default=None,
                   help="truncate the symmetrized structure at this arity")
    p.set_defaults(func=_cmd_lieify)

    p = sub.add_parser("hc", help="cyclic homology table")
    common(p)
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("--max-weight", type=int, default=None,
                   help="truncate words at this weight (exactness flags "
                        "report the consequences)")
    p.set_defaults(func=_cmd_hc)

    p = sub.add_parser("ce", help="Chevalley-Eilenberg homology table")
    common(p)
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("--max-weight", type=int, default=None)
    p.add_argument("--coinvariants", default=None, metavar="LABELS",
                   help="comma list of degree-0 basis labels spanning a "
                        "subalgebra; compute on its coinvariants")
    p.set_defaults(func=_cmd_ce)

    p = sub.add_parser("lqt",
                       help="compare stable matrix homology with the "
                            "exterior coalgebra on shifted cyclic homology")
    common(p)
    p.add_argument("--n", default="4",
                   help="comma list of matrix sizes whose tables are read "
                        "off the stable model through the corner inclusion "
                        "and cross-checked against it (default 4)")
    p.add_argument("--max-degree", type=int, default=4)
    p.set_defaults(func=_cmd_lqt)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag in ("max_degree", "max_weight", "max_arity"):
        value = getattr(args, flag, None)
        if value is not None and value < 0:
            return _fail(sys.stderr, EXIT_VALIDATION, [
                f"--{flag.replace('_', '-')}: must be a non-negative integer"])
    try:
        payload, code = args.func(args)
    except DocumentError as exc:
        return _fail(sys.stderr, EXIT_VALIDATION,
                     [f"{pos}: {msg}" for pos, msg in exc.diagnostics])
    except InputUnsuitable as exc:
        return _fail(sys.stderr, EXIT_VALIDATION, [str(exc)])
    except CapExceeded as exc:
        return _fail(sys.stderr, EXIT_CAP, [str(exc)])
    except ValueError as exc:
        return _fail(sys.stderr, EXIT_VIOLATION, [str(exc)])
    _emit(payload, args.format, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
