"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from homotopyalg import cli, constructions, linfty, lqt
from homotopyalg.ainfty import cyclic_letters
from homotopyalg.chain import BettiTable
from homotopyalg.cli import main
from homotopyalg.constructions import (
    InconsistencyError,
    PermutationModel,
    augmentation_ideal,
)
from homotopyalg.documents import document_to_algebra, parse_document
from homotopyalg.linfty import ce_letters

import model_oracles
from model_oracles import coalgebra_on_homology

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = ROOT / "tests" / "golden"


PAYLOAD_KEYS = ["caps", "inputs", "tables", "verdicts"]


def fixture(name):
    return str(FIXTURES / name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out else None, err


def table_dims(payload, name):
    return [row[1] for row in payload["tables"][name]["rows"]]


# ---------------------------------------------------------------------------
# check


def test_check_passes_on_every_shipped_fixture(capsys):
    for name in ("K.alg", "dual_numbers.alg", "ut2.alg", "sl2.alg",
                 "dga2.alg", "m3only.alg", "m3unital.alg"):
        code, payload, err = run_json(capsys, "check", fixture(name))
        assert code == 0, (name, err)
        assert payload["verdicts"]["structure"] == "ok"
        assert payload["verdicts"]["witness"] is None


def test_check_reports_violation_with_witness(capsys):
    code, payload, _ = run_json(capsys, "check", fixture("nonassoc.alg"))
    assert code == 2
    verdicts = payload["verdicts"]
    assert verdicts["structure"] == "violation"
    witness = verdicts["witness"]
    assert witness["arity"] == 3 and witness["inputs"] == ["u", "u", "u"]
    assert witness["defect"]


def bad_unit_doc(tmp_path):
    """K[e] with the nilpotent e declared as its unit."""
    data = json.loads((FIXTURES / "dual_numbers.alg").read_text())
    data["unit"] = "e"
    path = tmp_path / "badunit.alg"
    path.write_text(json.dumps(data))
    return str(path)


def test_check_unit_violation(capsys, tmp_path):
    code, payload, _ = run_json(capsys, "check", bad_unit_doc(tmp_path))
    assert code == 2
    assert payload["verdicts"]["structure"] == "ok"
    assert payload["verdicts"]["unit"] == "violation"
    assert payload["verdicts"]["unit_witness"]


def test_lqt_unit_violation(capsys, tmp_path):
    path = bad_unit_doc(tmp_path)
    code, payload, err = run_json(capsys, "lqt", path,
                                  "--n", "2", "--max-degree", "2")
    assert code == 2 and err == ""
    assert payload == {
        "caps": {"max_degree": 2},
        "inputs": {"file": path, "name": "K[e]", "kind": "associative"},
        "tables": {},
        "verdicts": {"structure": "ok", "unit": "violation",
                     "unit_witness": {"arity": 2, "inputs": ["e", "1"],
                                      "reason": "left unit law fails"}},
    }


# ---------------------------------------------------------------------------
# hc / ce


def test_hc_ground_field_table(capsys):
    code, payload, _ = run_json(capsys, "hc", fixture("K.alg"),
                                "--max-degree", "4")
    assert code == 0
    assert table_dims(payload, "hc") == [1, 0, 1, 0, 1]
    assert all(row[2] for row in payload["tables"]["hc"]["rows"])


def test_hc_rejects_linfty_documents(capsys):
    code, out, err = run(capsys, "hc", fixture("sl2.alg"))
    assert code == 1 and out == "" and "lieify" not in err and "associative" in err


def test_hc_weight_flag_reports_truncation(capsys):
    code, payload, _ = run_json(capsys, "hc", fixture("K.alg"),
                                "--max-degree", "4", "--max-weight", "4")
    assert code == 0
    rows = payload["tables"]["hc"]["rows"]
    assert [r[2] for r in rows] == [True, True, True, False, False]


def test_ce_sl2_table(capsys):
    code, payload, _ = run_json(capsys, "ce", fixture("sl2.alg"),
                                "--max-degree", "3")
    assert code == 0
    assert table_dims(payload, "ce") == [1, 0, 0, 1]


def test_ce_rejects_associative_documents(capsys):
    code, _, err = run(capsys, "ce", fixture("K.alg"))
    assert code == 1 and "lieify" in err


def test_ce_coinvariants_by_closed_subalgebra(capsys):
    code, payload, _ = run_json(capsys, "ce", fixture("sl2.alg"),
                                "--max-degree", "3", "--coinvariants", "h")
    assert code == 0
    assert table_dims(payload, "ce") == [1, 0, 0, 1]
    assert payload["inputs"]["coinvariants"] == "h"


def test_ce_coinvariants_validation(capsys):
    code, _, err = run(capsys, "ce", fixture("sl2.alg"),
                       "--coinvariants", "ghost")
    assert code == 1 and "ghost" in err
    # an empty list names the label '', as `--coinvariants ,` names two
    code, out, err = run(capsys, "ce", fixture("sl2.alg"), "--coinvariants", "")
    assert (code, out) == (1, "") and "unknown label ''" in err
    code, _, err = run(capsys, "ce", fixture("sl2.alg"),
                       "--coinvariants", "e,f")
    assert code == 1 and "closed" in err


def test_ce_coinvariants_of_nonzero_degree_are_refused(capsys, tmp_path):
    code, payload, _ = run_json(capsys, "lieify", fixture("dga2.alg"))
    assert code == 0
    path = tmp_path / "dga2_lie.alg"
    path.write_text(json.dumps(payload["document"]))
    code, out, err = run(capsys, "ce", str(path), "--coinvariants", "x")
    assert code == 1 and out == ""
    assert "--coinvariants" in err and "degree 0" in err


def test_ce_coinvariants_check_the_subalgebra_once(monkeypatch, capsys):
    # `ce` leaves the closure check to the homology it runs, with no
    # second check of its own
    calls = []
    real = linfty._check_h_closed

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(linfty, "_check_h_closed", counting)
    code, _, _ = run(capsys, "ce", fixture("sl2.alg"), "--max-degree", "2",
                     "--coinvariants", "h")
    assert code == 0 and len(calls) == 1


@pytest.mark.parametrize("coinvariants", [(), ("--coinvariants", "h")])
def test_ce_fault_on_a_certified_input_is_not_a_diagnostic(
        monkeypatch, capsys, coinvariants):
    # a refusal after the input and h are checked is the package's fault,
    # not a validation failure of --coinvariants
    def refuse(self):
        raise ValueError("induced image leaves the computed range")

    monkeypatch.setattr(linfty.CEModel, "homology", refuse)
    with pytest.raises(InconsistencyError, match="certified input") as info:
        main(["ce", fixture("sl2.alg"), "--max-degree", "3", *coinvariants])
    assert isinstance(info.value.__cause__, ValueError)
    assert capsys.readouterr().out == ""


def test_hc_certifies_its_input_first(capsys):
    # b^2 != 0 on nonassoc: without the certificate the table would report
    # negative dimensions, all flagged exact
    code, payload, _ = run_json(capsys, "hc", fixture("nonassoc.alg"),
                                "--max-degree", "3")
    assert code == 2
    assert sorted(payload) == PAYLOAD_KEYS
    assert payload["tables"] == {}
    assert payload["caps"] == {"max_degree": 3}
    verdicts = payload["verdicts"]
    assert verdicts["structure"] == "violation"
    assert verdicts["witness"]["arity"] == 3
    assert verdicts["witness"]["inputs"] == ["u", "u", "u"]


def jacobi_failing_sl2(tmp_path):
    """sl2 with [e, f] = e, which breaks the Jacobi identity at arity 3 on
    (h, e, f)."""
    data = json.loads((FIXTURES / "sl2.alg").read_text())
    for op in data["ops"]:
        if op["inputs"] == ["e", "f"]:
            op["output"] = [["1", "e"]]
    path = tmp_path / "bad_sl2.alg"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("coinvariants", [(), ("--coinvariants", "h")])
def test_ce_certifies_its_input_first(capsys, tmp_path, coinvariants):
    # the failure is the document's, not that of --coinvariants
    code, payload, err = run_json(capsys, "ce", jacobi_failing_sl2(tmp_path),
                                  "--max-degree", "3", *coinvariants)
    assert code == 2 and err == ""
    assert sorted(payload) == PAYLOAD_KEYS
    assert payload["tables"] == {}
    verdicts = payload["verdicts"]
    assert verdicts["structure"] == "violation"
    assert verdicts["witness"]["arity"] == 3
    assert verdicts["witness"]["inputs"] == ["h", "e", "f"]


def test_ce_checks_its_flags_before_it_certifies(capsys, tmp_path):
    # a bad flag is refused as such even on a document that would fail
    # certification
    code, out, err = run(capsys, "ce", jacobi_failing_sl2(tmp_path),
                         "--coinvariants", "zz")
    assert (code, out) == (1, "")
    assert err == "error: --coinvariants: unknown label 'zz'\n"


# ---------------------------------------------------------------------------
# lieify


def test_lieify_emits_parsable_linfty_document(capsys):
    code, payload, _ = run_json(capsys, "lieify", fixture("ut2.alg"))
    assert code == 0
    doc = payload["document"]
    assert doc["kind"] == "linfty" and doc["name"] == "ut2^Lie"
    labels = [label for label, _ in doc["basis"]]
    assert labels == ["1", "n", "p"]
    assert any(entry["inputs"] == ["n", "p"] for entry in doc["ops"])


def test_lieify_of_commutative_algebra_is_abelian(capsys):
    code, payload, _ = run_json(capsys, "lieify", fixture("dual_numbers.alg"))
    assert code == 0
    assert payload["document"]["ops"] == []


def test_lieify_rejects_linfty_input(capsys):
    code, _, err = run(capsys, "lieify", fixture("sl2.alg"))
    assert code == 1 and "linfty" in err


@pytest.mark.parametrize("command", ["check", "lieify"])
def test_max_arity_above_the_document_cap_is_refused(capsys, tmp_path,
                                                     command):
    path = capped_doc(tmp_path, {"max_arity": 2})
    code, out, err = run(capsys, command, path, "--max-arity", "3")
    assert code == 3 and out == ""
    assert err == ("error: --max-arity 3 exceeds the document cap "
                   "max_arity=2\n")
    code, _, _ = run(capsys, command, path, "--max-arity", "2")
    assert code == 0


def test_lieify_certifies_its_input_first(capsys):
    code, payload, _ = run_json(capsys, "lieify", fixture("nonassoc.alg"))
    assert code == 2
    verdicts = payload["verdicts"]
    assert verdicts["structure"] == "violation"
    assert verdicts["witness"]["inputs"] == ["u", "u", "u"]
    assert sorted(payload) == PAYLOAD_KEYS and payload["tables"] == {}


def test_lieify_fault_on_a_certified_input_is_not_a_violation(monkeypatch):
    def refuse(alg, cap=None):
        raise ValueError("commutator structure failed certification")

    monkeypatch.setattr(constructions, "lie_ify", refuse)
    with pytest.raises(InconsistencyError, match="certified input") as info:
        main(["lieify", fixture("ut2.alg")])
    assert isinstance(info.value.__cause__, ValueError)


# ---------------------------------------------------------------------------
# the unital A-infinity fixture: m_2 is the unit action, m_3(a, a, a) = b


def test_m3unital_is_a_strictly_unital_ainfty_algebra(capsys):
    code, payload, err = run_json(capsys, "check", fixture("m3unital.alg"))
    assert code == 0, err
    assert payload["verdicts"]["structure"] == "ok"
    assert payload["verdicts"]["unit"] == "ok"
    code, payload, err = run_json(capsys, "hc", fixture("m3unital.alg"),
                                  "--max-degree", "6")
    assert code == 0, err
    assert table_dims(payload, "hc") == [2, 0, 2, 0, 2, 0, 2]


def test_m3unital_lqt_matches(capsys):
    code, payload, err = run_json(capsys, "lqt", fixture("m3unital.alg"),
                                  "--n", "3,4", "--max-degree", "3")
    assert code == 0, err
    verdicts = payload["verdicts"]
    assert all(v == "MATCH" for _, v in verdicts["comparison"])
    assert all(v == "MATCH" for _, v in verdicts["primitives"])
    assert verdicts["hopf"] == ("skipped: doubled ambient dimension 108 "
                                "exceeds the harness budget 40")


# ---------------------------------------------------------------------------
# negative degrees


@pytest.mark.parametrize("command", ["check", "hc", "lieify", "lqt"])
def test_negative_degree_is_a_validation_failure(capsys, tmp_path, command):
    data = json.loads((FIXTURES / "dga2.alg").read_text())
    data["basis"].append(["y", -1])
    path = tmp_path / "negative.alg"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, command, str(path))
    assert code == 1
    assert out == ""
    assert "basis[2]" in err and "negative" in err


@pytest.mark.parametrize("argv", [
    ("lqt", "K.alg", "--max-degree", "-1"),
    ("hc", "K.alg", "--max-degree", "-1"),
    ("hc", "K.alg", "--max-weight", "-1"),
    ("ce", "sl2.alg", "--max-degree", "-1"),
    ("ce", "sl2.alg", "--max-weight", "-2"),
    ("check", "K.alg", "--max-arity", "-2"),
    ("lieify", "ut2.alg", "--max-arity", "-1"),
])
def test_negative_flag_is_a_validation_failure(capsys, argv):
    command, name, flag, value = argv
    code, out, err = run(capsys, command, fixture(name), flag, value)
    assert code == 1
    assert out == ""
    assert flag in err and "non-negative" in err


@pytest.mark.parametrize("argv", [
    ("lqt", fixture("K.alg"), "--bogus"),
    ("lqt", fixture("K.alg"), "--max-degree", "x"),
    ("lqt", fixture("K.alg"), "--max-weight", "3"),
    ("frobnicate", fixture("K.alg")),
    (),
    # the payload is JSON alone: --format is not a flag, with any value
    ("lqt", fixture("K.alg"), "--format", "text"),
    ("hc", fixture("K.alg"), "--format", "json"),
], ids=["unknown-flag", "bad-value", "flag-of-another-command",
        "unknown-command", "no-command", "removed-flag", "removed-flag"])
def test_a_usage_error_is_a_validation_failure(capsys, argv):
    # argparse's own exit code, 2, is the code of a mathematical violation
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_help_prints_the_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        main(["lqt", "--help"])
    assert info.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: homotopyalg lqt")
    assert captured.err == ""


# ---------------------------------------------------------------------------
# lqt


def test_lqt_small_run_matches(capsys):
    code, payload, _ = run_json(capsys, "lqt", fixture("K.alg"),
                                "--n", "2,3", "--max-degree", "3")
    assert code == 0
    verdicts = payload["verdicts"]
    assert verdicts["all_match"] is True
    assert all(v == "MATCH" for _, v in verdicts["comparison"])
    assert all(v == "MATCH" for _, v in verdicts["primitives"])
    assert table_dims(payload, "exterior_on_cyclic") == [1, 1, 0, 1]
    assert verdicts["hopf"]["ok"] is True


@pytest.mark.parametrize("name,argv", [
    # no augmentation ideal: the model of gl_N(A), and the product runs
    ("lqt_dga2_n12", ["fixtures/dga2.alg", "--n", "1,2"]),
    # the ideal's model alone: the product is skipped
    ("lqt_ut2_n23", ["fixtures/ut2.alg", "--n", "2,3"]),
    # the ideal's model checked against the full one, and the unreduced
    # homology of gl_1 and gl_2
    ("lqt_dual_n12", ["fixtures/dual_numbers.alg", "--n", "1,2"]),
    # a nonzero m_3: the route of a unital A-infinity algebra, whose product
    # is skipped past the budget
    ("lqt_m3unital_n23", ["fixtures/m3unital.alg", "--n", "2,3"]),
])
def test_each_lqt_route_payload_equals_its_golden_file(name, argv):
    # a fresh process from the repository root, as for the golden files of
    # the acceptance suite: the payload echoes the relative document path
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-m", "homotopyalg", "lqt", *argv,
         "--max-degree", "3"],
        capture_output=True, check=True, cwd=ROOT, env=env)
    assert result.stdout == (GOLDEN / f"{name}.json").read_bytes()


def test_lqt_rejects_documents_without_unit(capsys):
    code, _, err = run(capsys, "lqt", fixture("m3only.alg"),
                       "--n", "2", "--max-degree", "2")
    assert code == 1 and "unit" in err


def test_lqt_on_uncertified_document_reports_violation(capsys, tmp_path):
    data = json.loads((FIXTURES / "nonassoc.alg").read_text())
    data["basis"].append(["1", 0])
    data["unit"] = "1"
    for label in ("u", "v", "1"):
        data["ops"].append({"arity": 2, "inputs": ["1", label],
                            "output": [["1", label]]})
        if label != "1":
            data["ops"].append({"arity": 2, "inputs": [label, "1"],
                                "output": [["1", label]]})
    path = tmp_path / "bad.alg"
    path.write_text(json.dumps(data))
    code, payload, _ = run_json(capsys, "lqt", str(path),
                                "--n", "2", "--max-degree", "2")
    assert code == 2
    assert sorted(payload) == PAYLOAD_KEYS and payload["tables"] == {}
    assert payload["verdicts"]["structure"] == "violation"


def test_internal_inconsistency_is_not_a_violation(monkeypatch):
    # a failing cross-check is a fault of the package: it must not be
    # reported as a mathematical violation (exit 2)
    def wrong_homology(alg, max_degree):
        return BettiTable(dims={q: 7 for q in range(max_degree + 1)})

    monkeypatch.setattr(lqt, "lie_homology", wrong_homology)
    with pytest.raises(InconsistencyError, match="coinvariant reduction"):
        main(["lqt", fixture("K.alg"), "--n", "1,2", "--max-degree", "2"])


def fixture_algebra(name):
    return document_to_algebra(parse_document(
        (FIXTURES / name).read_text(encoding="utf-8")))


def run_unchanged_by(monkeypatch, capsys, mutate, *argv):
    """Run the command line with and without `mutate` applied: no run reads
    a homology coproduct, so a fault planted there leaves the exit code and
    the payload as they were.  Returns the exit code."""
    code, out, _ = run(capsys, *argv)
    mutate(monkeypatch)
    assert run(capsys, *argv)[:2] == (code, out)
    return code


def extra_coproduct_term(monkeypatch):
    real = model_oracles.coproduct_sym

    def wrong(word, space):
        out = real(word, space)
        if len(word) > 1:
            out[(word[:1], word[1:])] = out.get((word[:1], word[1:]), 0) + 1
        return out

    monkeypatch.setattr(model_oracles, "coproduct_sym", wrong)


def weighted_coproduct(monkeypatch):
    # weighting each split by the length of its front keeps it natural
    # under relabelling, so it descends, but it no longer commutes with the
    # differential
    real = model_oracles.coproduct_sym

    def weighted(word, space):
        return {split: len(split[0]) * c
                for split, c in real(word, space).items()}

    monkeypatch.setattr(model_oracles, "coproduct_sym", weighted)


def test_coproduct_fault_is_not_a_violation(monkeypatch, capsys):
    # the coproduct descends for every input, so the oracle that checks it
    # refuses a wrong term as a fault of the package: on the model of
    # gl_4(K[e]), which the block-sum product builds at size 2.  Over K the
    # quotient is zero in degree 2, so through degree 3 the wrong term
    # never reaches a class and nothing fires
    assert run_unchanged_by(monkeypatch, capsys, extra_coproduct_term, "lqt",
                            fixture("dual_numbers.alg"), "--n", "2",
                            "--max-degree", "3") == 0
    with pytest.raises(InconsistencyError, match="does not descend"):
        coalgebra_on_homology(
            PermutationModel(fixture_algebra("dual_numbers.alg"), 3))
    coalgebra_on_homology(PermutationModel(fixture_algebra("K.alg"), 3))


def test_coproduct_that_is_no_chain_map_is_not_a_violation(monkeypatch,
                                                            capsys):
    # the weighted coproduct: the coproduct of a boundary is not a cycle
    # on the model of the ideal of ut2 that `lqt ut2 --n 2` builds
    assert run_unchanged_by(monkeypatch, capsys, weighted_coproduct, "lqt",
                            fixture("ut2.alg"), "--n", "2",
                            "--max-degree", "3") == 0
    ideal = augmentation_ideal(fixture_algebra("ut2.alg"))
    with pytest.raises(InconsistencyError,
                       match="coproduct of a boundary is not a cycle"):
        coalgebra_on_homology(PermutationModel(ideal, 3))


def test_coproduct_that_is_not_cocommutative_is_not_a_violation(
        monkeypatch, capsys):
    # the weighted coproduct passes the descent and chain-map checks on K,
    # but its coproduct on homology is neither coassociative nor
    # graded-cocommutative: at max_degree 4 the model of gl_5(K), which
    # the block-sum product builds, shows it on its class x_1 x_3.  At
    # max_degree 3 no class of K has a nonzero reduced coproduct, and the
    # mutant passes
    assert run_unchanged_by(monkeypatch, capsys, weighted_coproduct, "lqt",
                            fixture("K.alg"), "--n", "3,4",
                            "--max-degree", "4") == 0
    base = fixture_algebra("K.alg")
    with pytest.raises(InconsistencyError,
                       match="homology coproduct is not cocommutative"):
        coalgebra_on_homology(PermutationModel(base, 4))
    coalgebra_on_homology(PermutationModel(base, 3))


def test_projection_that_keeps_boundaries_is_not_a_violation(monkeypatch,
                                                             capsys):
    # a projection that reads the coefficient sum of a chain into the first
    # class does not kill boundaries, so the class of the coproduct of a
    # boundary is not zero; the model of the ideal of K[e] has no
    # boundaries to check, but that of gl_4(K[e]) has
    real = model_oracles.projection

    def leaky(monkeypatch):
        def projection(cx):
            p = real(cx)

            def project(q, element):
                out = dict(p(q, element))
                if cx.dim(q) and element:
                    out[0] = out.get(0, 0) + sum(element.values())
                return out

            return project

        monkeypatch.setattr(model_oracles, "projection", projection)

    assert run_unchanged_by(monkeypatch, capsys, leaky, "lqt",
                            fixture("dual_numbers.alg"), "--n", "2",
                            "--max-degree", "3") == 0
    with pytest.raises(InconsistencyError,
                       match="depends on the choice of representative"):
        coalgebra_on_homology(
            PermutationModel(fixture_algebra("dual_numbers.alg"), 3))


def test_primitive_sector_fault_is_not_a_violation(monkeypatch, capsys):
    # every model the run builds must have the table of Lambda(H(P)) on its
    # one-cycle words P, so a class too many in H(P) is a fault of the
    # package, on the ideal's model as on that of gl_5(K)
    real = PermutationModel.primitive_homology

    def one_class_too_many(self):
        table = real(self)
        dims = dict(table.dims)
        dims[1] += 1
        return BettiTable(dims=dims, representatives=table.representatives)

    monkeypatch.setattr(PermutationModel, "primitive_homology",
                        one_class_too_many)
    for name in ("K.alg", "dual_numbers.alg", "dga2.alg"):
        with pytest.raises(InconsistencyError, match="is not Lambda"):
            main(["lqt", fixture(name), "--n", "2,3", "--max-degree", "4"])
        assert capsys.readouterr().out == ""


def test_model_fault_on_a_certified_base_is_not_a_violation(monkeypatch):
    # verify_lqt certifies the base before building any model, so a failed
    # re-certification inside the build is a fault of the package
    def refuse(alg, cap=None):
        raise ValueError("inner construction failed certification")

    monkeypatch.setattr(constructions, "lie_ify", refuse)
    with pytest.raises(InconsistencyError, match="certified base") as info:
        main(["lqt", fixture("K.alg"), "--n", "1,2", "--max-degree", "2"])
    assert isinstance(info.value.__cause__, ValueError)


def test_arithmetic_fault_is_not_a_violation(monkeypatch):
    def broken(hc, max_degree):
        return 1 // 0

    monkeypatch.setattr(lqt, "expand_exterior", broken)
    with pytest.raises(ZeroDivisionError):
        main(["lqt", fixture("K.alg"), "--n", "2", "--max-degree", "2"])


def test_package_value_error_is_not_a_violation(monkeypatch):
    # past validation, a ValueError can only come from the package: it
    # surfaces as an inconsistency, and is not reported as a mathematical
    # violation (exit 2)
    def broken(base, sizes, max_degree):
        raise ValueError("broken")

    monkeypatch.setattr(lqt, "verify_lqt", broken)
    with pytest.raises(InconsistencyError, match="broken") as info:
        main(["lqt", fixture("K.alg"), "--n", "2", "--max-degree", "2"])
    assert isinstance(info.value.__cause__, ValueError)


@pytest.mark.parametrize("argv,module,name", [
    (["check", "K.alg"], cli, "check_stasheff"),
    (["hc", "K.alg", "--max-degree", "2"], cli, "cyclic_homology"),
    (["ce", "sl2.alg", "--max-degree", "2"], linfty, "lie_homology"),
    (["lieify", "ut2.alg"], constructions, "lie_ify"),
    (["lqt", "K.alg", "--n", "2", "--max-degree", "2"], lqt, "verify_lqt"),
], ids=["check", "hc", "ce", "lieify", "lqt"])
def test_a_value_error_past_validation_is_one_fault_rule(
        monkeypatch, capsys, argv, module, name):
    # every command maps a ValueError from its computation to the same
    # InconsistencyError, in `main`, and prints no payload
    def broken(*args, **kwargs):
        raise ValueError("broken")

    monkeypatch.setattr(module, name, broken)
    command, document, *flags = argv
    with pytest.raises(InconsistencyError, match="broken") as info:
        main([command, fixture(document), *flags])
    assert isinstance(info.value.__cause__, ValueError)
    assert str(info.value.__cause__) == "broken"
    assert capsys.readouterr().out == ""


def test_lqt_rejects_linfty_documents(capsys):
    code, out, err = run(capsys, "lqt", fixture("sl2.alg"))
    assert code == 1 and out == ""
    assert err == ("error: kind: the comparison takes an associative-flavor "
                   "document\n")


def test_lqt_validates_size_list(capsys):
    code, _, err = run(capsys, "lqt", fixture("K.alg"), "--n", "two")
    assert code == 1 and "--n" in err
    code, _, err = run(capsys, "lqt", fixture("K.alg"), "--n", "0,2")
    assert code == 1


# ---------------------------------------------------------------------------
# caps, errors, determinism


def capped_doc(tmp_path, caps, name="K.alg"):
    data = json.loads((FIXTURES / name).read_text())
    data["caps"] = caps
    path = tmp_path / "capped.alg"
    path.write_text(json.dumps(data))
    return str(path)


def test_document_weight_cap_refuses_inexact_request(tmp_path, capsys):
    path = capped_doc(tmp_path, {"max_weight": 4})
    code, out, err = run(capsys, "hc", path, "--max-degree", "4")
    assert code == 3 and out == "" and "cap" in err
    assert err.endswith("; pass --max-weight 4 to accept a truncated "
                        "computation\n")
    # an explicit flag within the cap degrades exactness instead
    code, payload, _ = run_json(capsys, "hc", path, "--max-degree", "4",
                                "--max-weight", "4")
    assert code == 0
    assert [r[2] for r in payload["tables"]["hc"]["rows"]] == \
        [True, True, True, False, False]
    # asking beyond the document cap is refused
    code, _, err = run(capsys, "hc", path, "--max-degree", "4",
                       "--max-weight", "9")
    assert code == 3


@pytest.mark.parametrize("name,max_degree", [
    ("K.alg", 0), ("K.alg", 4), ("dual_numbers.alg", 3)])
def test_lqt_runs_under_a_weight_cap_of_its_longest_word(tmp_path, capsys,
                                                         name, max_degree):
    # `lqt` reads words of at most max(m + 1, 2) letters, so a cap of that
    # weight changes nothing
    needed = max(max_degree + 1, 2)
    argv = ["--n", "3", "--max-degree", str(max_degree)]
    code, plain, _ = run_json(capsys, "lqt", fixture(name), *argv)
    assert code == 0
    path = capped_doc(tmp_path, {"max_weight": needed}, name)
    code, payload, err = run_json(capsys, "lqt", path, *argv)
    assert code == 0 and err == ""
    assert payload["tables"] == plain["tables"]
    assert payload["verdicts"] == plain["verdicts"]
    assert payload["caps"] == {"max_degree": max_degree}


@pytest.mark.parametrize("name,max_degree", [
    ("K.alg", 0), ("K.alg", 4), ("dual_numbers.alg", 3)])
def test_lqt_refuses_a_weight_cap_below_its_longest_word(tmp_path, capsys,
                                                         name, max_degree):
    # `lqt` has no --max-weight, so the refusal names no flag
    needed = max(max_degree + 1, 2)
    path = capped_doc(tmp_path, {"max_weight": needed - 1}, name)
    code, out, err = run(capsys, "lqt", path, "--n", "3",
                         "--max-degree", str(max_degree))
    assert code == 3 and out == ""
    assert err == (f"error: an exact answer at this degree needs words of "
                   f"weight {needed}, but the document caps weight at "
                   f"{needed - 1}\n")


@pytest.mark.parametrize("command,name,letters", [
    *(("hc", name, cyclic_letters) for name in (
        "K.alg", "dga2.alg", "dual_numbers.alg", "m3only.alg",
        "m3unital.alg", "ut2.alg")),
    ("ce", "sl2.alg", ce_letters)])
@pytest.mark.parametrize("max_degree", range(4))
def test_cap_threshold_and_exactness_flag_read_one_rule(
        tmp_path, capsys, command, name, letters, max_degree):
    # the weight the command line asks of a document cap is the one below
    # which the library flags the top degree inexact
    needed = letters(max_degree)
    argv = ["--max-degree", str(max_degree)]
    code, plain, _ = run_json(capsys, command, fixture(name), *argv)
    assert code == 0
    assert all(row[2] for row in plain["tables"][command]["rows"])
    path = capped_doc(tmp_path, {"max_weight": needed - 1}, name)
    code, out, _ = run(capsys, command, path, *argv)
    assert (code, out) == (3, "")
    path = capped_doc(tmp_path, {"max_weight": needed}, name)
    code, payload, _ = run_json(capsys, command, path, *argv)
    assert code == 0 and payload["tables"] == plain["tables"]
    code, payload, _ = run_json(capsys, command, fixture(name), *argv,
                                "--max-weight", str(needed - 1))
    assert code == 0
    assert payload["tables"][command]["rows"][max_degree][2] is False
    code, payload, _ = run_json(capsys, command, fixture(name), *argv,
                                "--max-weight", str(needed))
    assert code == 0 and payload["tables"] == plain["tables"]


def test_document_degree_cap(tmp_path, capsys):
    path = capped_doc(tmp_path, {"max_degree": 2})
    code, _, err = run(capsys, "hc", path, "--max-degree", "3")
    assert code == 3 and "max_degree" in err
    code, payload, _ = run_json(capsys, "hc", path, "--max-degree", "2")
    assert code == 0 and table_dims(payload, "hc") == [1, 0, 1]


@pytest.mark.parametrize("command,name", [("ce", "sl2.alg"), ("lqt", "K.alg")])
def test_document_degree_cap_binds_every_degree_command(tmp_path, capsys,
                                                        command, name):
    path = capped_doc(tmp_path, {"max_degree": 2}, name)
    code, out, err = run(capsys, command, path, "--max-degree", "3")
    assert code == 3 and out == ""
    assert err == ("error: requested degree 3 exceeds the document cap "
                   "max_degree=2\n")


def test_missing_and_malformed_files(tmp_path, capsys):
    code, out, err = run(capsys, "check", str(tmp_path / "absent.alg"))
    assert code == 1 and out == "" and "absent.alg" in err
    bad = tmp_path / "broken.alg"
    bad.write_text("{\"name\": }")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 1 and "line 1" in err


def repeated_even_input_doc(tmp_path, coeff):
    path = tmp_path / "repeated.alg"
    path.write_text(json.dumps({
        "kind": "linfty", "basis": [["a", 0], ["b", 0]],
        "ops": [{"arity": 2, "inputs": ["a", "a"],
                 "output": [[coeff, "b"]]}]}))
    return str(path)


@pytest.mark.parametrize("command", ["check", "ce"])
@pytest.mark.parametrize("coeff", ["1", "0"])
def test_repeated_even_bracket_input_is_a_validation_failure(
        capsys, tmp_path, command, coeff):
    code, out, err = run(capsys, command,
                         repeated_even_input_doc(tmp_path, coeff))
    assert code == 1 and out == ""
    assert err.startswith("error: ops[0].inputs: ") and "repeat" in err


def test_repeated_output_label_is_a_validation_failure(capsys, tmp_path):
    # m(1, 1) = 1 + 1 is the unit violation m(1, 1) = 2, not m(1, 1) = 1
    path = tmp_path / "repeated.alg"
    path.write_text(json.dumps({
        "kind": "associative", "basis": [["1", 0]], "unit": "1",
        "ops": [{"arity": 2, "inputs": ["1", "1"],
                 "output": [["1", "1"], ["1", "1"]]}]}))
    code, out, err = run(capsys, "check", str(path))
    assert code == 1 and out == ""
    assert err == ("error: ops[0].output[1]: repeated output label '1': "
                   "already given at ops[0].output[0]\n")


def test_undecodable_document_is_a_validation_failure(capsys, tmp_path):
    path = tmp_path / "latin1.alg"
    path.write_bytes(b'{"name": "\xe9"}')
    code, out, err = run(capsys, "check", str(path))
    assert code == 1 and out == "" and "not UTF-8" in err


def test_deeply_nested_document_is_a_validation_failure(capsys, tmp_path):
    path = tmp_path / "nested.alg"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "check", str(path))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: $: ")


def test_diagnostics_go_to_stderr_payload_to_stdout(capsys):
    code, out, err = run(capsys, "hc", fixture("sl2.alg"))
    assert out == "" and err.startswith("error:")
    code, out, err = run(capsys, "hc", fixture("K.alg"))
    assert err == "" and json.loads(out)


def test_identical_invocations_are_byte_identical(capsys):
    first = run(capsys, "hc", fixture("K.alg"), "--max-degree", "3")
    second = run(capsys, "hc", fixture("K.alg"), "--max-degree", "3")
    assert first == second
    a = run(capsys, "check", fixture("sl2.alg"))
    b = run(capsys, "check", fixture("sl2.alg"))
    assert a == b


def test_console_entry_point_runs(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "homotopyalg", "check", fixture("K.alg")],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert json.loads(result.stdout)["verdicts"]["structure"] == "ok"
