"""Acceptance suite: one test per shipped guarantee, exact arithmetic only.

Each test prints a single PASS line on success; the test name states the
guarantee.  Every equality below is exact integer or exact rational
equality - no tolerances anywhere.
"""

import copy
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from homotopyalg.cli import main
from homotopyalg.constructions import PermutationModel, gl, gl_index, lie_ify
from homotopyalg.documents import document_to_algebra, parse_document
from homotopyalg.graded import add_into, canonical_sym
from homotopyalg.ainfty import cyclic_homology
from homotopyalg.linfty import lie_homology
from homotopyalg.lqt import hopf_product_on_homology

from model_oracles import (
    coproduct_sym,
    inner_action_on_homology,
    word_degree,
)
from oracles import connes_cyclic_dims, gl_bracket, lie_homology_dims, sl2_bracket

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"
CHECKED_FIXTURES = ("K.alg", "dual_numbers.alg", "ut2.alg", "sl2.alg",
                    "dga2.alg", "m3only.alg")


def fixture_path(name):
    return str(FIXTURES / name)


def fixture_data(name):
    return json.loads((FIXTURES / name).read_text(encoding="utf-8"))


def algebra(name):
    return document_to_algebra(parse_document(
        (FIXTURES / name).read_text(encoding="utf-8")))


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# mutation helpers for the structure-validity suite


def _set_output(data, inputs, output):
    for op in data["ops"]:
        if op["inputs"] == inputs:
            op["output"] = output
            return
    raise KeyError(inputs)


def _set_degree(data, label, degree):
    for item in data["basis"]:
        if item[0] == label:
            item[1] = degree
            return
    raise KeyError(label)


def _duplicate_first_op(data):
    data["ops"].append(copy.deepcopy(data["ops"][0]))


# Five mutants per fixture, each of which `check` must reject.  Sign flips
# are used wherever a flip genuinely breaks the structure; where a flip is
# an isomorphic rescaling (b -> -b absorbs the only sign of the ternary
# fixture, x -> -x absorbs the differential's, e -> -e absorbs [e,f] -> -h),
# the slot is filled with a coefficient tweak, a degree bump, or a schema
# violation instead.
MUTANTS = {
    "K.alg": [
        ("flip m(1,1)", lambda d: _set_output(d, ["1", "1"], [["-1", "1"]])),
        ("scale m(1,1)", lambda d: _set_output(d, ["1", "1"], [["2", "1"]])),
        ("zero m(1,1)", lambda d: _set_output(d, ["1", "1"], [])),
        ("degree bump 1", lambda d: _set_degree(d, "1", 1)),
        ("duplicate op", _duplicate_first_op),
    ],
    "dual_numbers.alg": [
        ("flip m(1,1)", lambda d: _set_output(d, ["1", "1"], [["-1", "1"]])),
        ("flip m(1,e)", lambda d: _set_output(d, ["1", "e"], [["-1", "e"]])),
        ("flip m(e,1)", lambda d: _set_output(d, ["e", "1"], [["-1", "e"]])),
        ("retarget m(1,e)", lambda d: _set_output(d, ["1", "e"], [["1", "1"]])),
        ("degree bump e", lambda d: _set_degree(d, "e", 1)),
    ],
    "ut2.alg": [
        ("flip m(1,1)", lambda d: _set_output(d, ["1", "1"], [["-1", "1"]])),
        ("flip m(1,n)", lambda d: _set_output(d, ["1", "n"], [["-1", "n"]])),
        ("flip m(p,1)", lambda d: _set_output(d, ["p", "1"], [["-1", "p"]])),
        ("flip m(n,p)", lambda d: _set_output(d, ["n", "p"], [["-1", "n"]])),
        ("flip m(p,p)", lambda d: _set_output(d, ["p", "p"], [["-1", "p"]])),
    ],
    "sl2.alg": [
        ("flip [h,e]", lambda d: _set_output(d, ["h", "e"], [["-2", "e"]])),
        ("flip [h,f]", lambda d: _set_output(d, ["h", "f"], [["2", "f"]])),
        ("scale [h,e]", lambda d: _set_output(d, ["h", "e"], [["3", "e"]])),
        ("retarget [e,f]", lambda d: _set_output(d, ["e", "f"], [["1", "e"]])),
        ("degree bump e", lambda d: _set_degree(d, "e", 1)),
    ],
    "dga2.alg": [
        ("flip m(1,1)", lambda d: _set_output(d, ["1", "1"], [["-1", "1"]])),
        ("flip m(1,x)", lambda d: _set_output(d, ["1", "x"], [["-1", "x"]])),
        ("flip m(x,1)", lambda d: _set_output(d, ["x", "1"], [["-1", "x"]])),
        ("scale m(1,x)", lambda d: _set_output(d, ["1", "x"], [["2", "x"]])),
        ("degree bump x", lambda d: _set_degree(d, "x", 2)),
    ],
    "m3only.alg": [
        ("declare unit a", lambda d: d.__setitem__("unit", "a")),
        ("degree bump b to 0", lambda d: _set_degree(d, "b", 0)),
        ("degree bump b to 2", lambda d: _set_degree(d, "b", 2)),
        ("degree bump a", lambda d: _set_degree(d, "a", 1)),
        ("duplicate op", _duplicate_first_op),
    ],
}


def test_criterion_1_structure_validity_and_mutants(tmp_path, capsys):
    for name in CHECKED_FIXTURES:
        code, out, err = run_cli(["check", fixture_path(name)], capsys)
        assert code == 0, (name, err)
        payload = json.loads(out)
        assert payload["verdicts"]["structure"] == "ok", name
        assert payload["verdicts"]["witness"] is None, name
    for name in CHECKED_FIXTURES:
        assert len(MUTANTS[name]) == 5, name
        for label, mutate in MUTANTS[name]:
            data = fixture_data(name)
            mutate(data)
            path = tmp_path / f"mutant.alg"
            path.write_text(json.dumps(data), encoding="utf-8")
            code, out, err = run_cli(["check", str(path)], capsys)
            assert code != 0, (name, label)
            if out:
                verdicts = json.loads(out)["verdicts"]
                witness = (verdicts.get("witness")
                           or verdicts.get("unit_witness"))
                assert witness, (name, label)
            else:
                assert err.strip(), (name, label)
    print("CRITERION 1: PASS - 6 fixtures certify; all 30 mutants "
          "rejected with a witness or diagnostic")


# ---------------------------------------------------------------------------
# coderivation laws


def _tensor_coproduct(word):
    return {(word[:i], word[i:]): 1 for i in range(len(word) + 1)}


def _coproduct(element, space, flavor):
    out = {}
    for word, coeff in element.items():
        pairs = (_tensor_coproduct(word) if flavor == "tensor"
                 else coproduct_sym(word, space))
        for pair, sign in pairs.items():
            add_into(out, pair, Fraction(coeff) * sign)
    return {k: v for k, v in out.items() if v}


def _square(d, word):
    out = {}
    for w, c in d.eval_word(word).items():
        for w2, c2 in d.eval_word(w).items():
            add_into(out, w2, c * c2)
    return out


def _co_leibniz_defect(d, word, space, flavor):
    lhs = _coproduct(d.eval_word(word), space, flavor)
    rhs = {}
    for (front, back), sign in _coproduct({word: Fraction(1)},
                                          space, flavor).items():
        for w, c in d.eval_word(front).items():
            add_into(rhs, (w, back), sign * c)
        koszul = -1 if word_degree(space, front) % 2 else 1
        for w, c in d.eval_word(back).items():
            add_into(rhs, (front, w), sign * koszul * c)
    defect = dict(lhs)
    for pair, c in rhs.items():
        add_into(defect, pair, -c)
    return {k: v for k, v in defect.items() if v}


def _words_up_to_weight(space, flavor, max_weight):
    dim = space.dim
    if flavor == "tensor":
        for k in range(1, max_weight + 1):
            yield from itertools.product(range(dim), repeat=k)
    else:
        for k in range(1, max_weight + 1):
            for word in itertools.combinations_with_replacement(range(dim), k):
                if canonical_sym(word, space)[0]:
                    yield word


def test_criterion_2_co_leibniz_and_square_zero_to_weight_4(capsys):
    cases = []
    for name in ("K.alg", "dual_numbers.alg", "ut2.alg", "dga2.alg",
                 "m3only.alg"):
        alg = algebra(name)
        cases.append((name, "tensor", alg))
        cases.append((name + "^Lie", "sym", lie_ify(alg)))
    cases.append(("sl2.alg", "sym", algebra("sl2.alg")))
    checked = 0
    for name, flavor, alg in cases:
        d = alg.coderivation
        space = alg.suspended
        for word in _words_up_to_weight(space, flavor, 4):
            assert _square(d, word) == {}, (name, word)
            assert _co_leibniz_defect(d, word, space, flavor) == {}, \
                (name, word)
            checked += 1
    print(f"CRITERION 2: PASS - co-Leibniz and square-zero hold exactly on "
          f"{checked} words of weight <= 4 across {len(cases)} "
          f"structures in both flavors")


# ---------------------------------------------------------------------------
# oracle equivalences


def test_criterion_3_cyclic_homology_matches_connes_oracle(capsys):
    results = {}
    for name in ("K.alg", "dual_numbers.alg", "ut2.alg"):
        alg = algebra(name)
        assert alg.space.dim <= 3
        mult = {w: dict(v) for w, v in alg.ops.get(2, {}).items()}
        oracle = connes_cyclic_dims(mult, alg.space.dim, 3)
        table = cyclic_homology(alg, 3)
        computed = [table.dims[q] for q in range(4)]
        assert computed == [oracle[q] for q in range(4)], name
        results[name] = computed
    assert results["K.alg"] == [1, 0, 1, 0]
    print(f"CRITERION 3: PASS - cyclic homology equals the independent "
          f"rotation-quotient computation on 3 associative fixtures "
          f"(K: {results['K.alg']})")


def test_criterion_4_ce_homology_matches_classical_oracle(capsys):
    sl2 = algebra("sl2.alg")
    table = lie_homology(sl2, 3)
    sl2_dims = [table.dims[q] for q in range(4)]
    oracle = lie_homology_dims(sl2_bracket, 3, 3)
    assert sl2_dims == [oracle[q] for q in range(4)]
    assert sl2_dims == [1, 0, 0, 1]

    gl2 = gl(algebra("K.alg"), 2)
    table = lie_homology(gl2, 3)
    gl2_dims = [table.dims[q] for q in range(4)]
    oracle = lie_homology_dims(gl_bracket(2), 4, 3)
    assert gl2_dims == [oracle[q] for q in range(4)]
    print(f"CRITERION 4: PASS - Chevalley-Eilenberg homology equals the "
          f"exterior-power computation (sl2: {sl2_dims}, gl2(K): {gl2_dims})")


def test_criterion_5_inner_derivations_act_trivially(capsys):
    rng = random.Random(2026)
    checked = 0
    for alg in (algebra("sl2.alg"),
                gl(algebra("dual_numbers.alg"), 2)):
        dim = alg.space.dim
        for _ in range(10):
            gen = {i: Fraction(rng.randint(-3, 3)) for i in range(dim)}
            if not any(gen.values()):
                gen[rng.randrange(dim)] = Fraction(1)
            induced = inner_action_on_homology(alg, gen, 3)
            for q, rows in induced.items():
                for row in rows:
                    assert row == {}, (alg.name, q, gen)
            checked += 1
    print(f"CRITERION 5: PASS - {checked} random inner derivations induce "
          f"the exact zero map on homology through degree 3")


def test_criterion_6_reductive_coinvariants_preserve_homology(capsys):
    dims = {}
    for name in ("K.alg", "dual_numbers.alg"):
        base = algebra(name)
        g2 = gl(base, 2)
        full = lie_homology(g2, 3)
        h = [gl_index(2, base.space.dim, base.unit, r, s)
             for r in range(2) for s in range(2)]
        reduced = lie_homology(g2, 3, h=h)
        full_dims = [full.dims.get(q, 0) for q in range(4)]
        red_dims = [reduced.dims.get(q, 0) for q in range(4)]
        assert full_dims == red_dims, name
        dims[name] = full_dims
    print(f"CRITERION 6: PASS - matrix-unit coinvariants leave homology "
          f"unchanged through degree 3 (gl2(K): {dims['K.alg']}, "
          f"gl2(K[e]): {dims['dual_numbers.alg']})")


# ---------------------------------------------------------------------------
# the comparison theorem and the product


def test_criterion_7_lqt_comparison_at_desk_scale(capsys):
    code, out, err = run_cli(
        ["lqt", fixture_path("K.alg"), "--n", "3,4", "--max-degree", "4"],
        capsys)
    assert code == 0, err
    payload = json.loads(out)
    verdicts = payload["verdicts"]
    assert all(v == "MATCH" for _, v in verdicts["comparison"])
    assert all(v == "MATCH" for _, v in verdicts["primitives"])
    stable = [row[1] for row in
              payload["tables"]["matrix_homology"][-1]["rows"]]
    assert stable == [1, 1, 0, 1, 1]
    hc = dict(payload["tables"]["cyclic_homology"]["rows"])
    prim = dict(payload["tables"]["primitives"]["rows"])
    for k in range(1, 5):
        assert prim[k] == hc.get(k - 1, 0)

    code, out, err = run_cli(
        ["lqt", fixture_path("dual_numbers.alg"),
         "--n", "3,4", "--max-degree", "3"], capsys)
    assert code == 0, err
    payload = json.loads(out)
    verdicts = payload["verdicts"]
    assert all(v == "MATCH" for _, v in verdicts["comparison"])
    assert all(v == "MATCH" for _, v in verdicts["primitives"])
    print("CRITERION 7: PASS - stable matrix homology matches the exterior "
          "expansion of cyclic homology for K (degrees 0..4, dims 1,1,0,1,1) "
          "and K[e] (degrees 0..3), primitives included")


def test_criterion_8_block_sum_product_is_commutative_and_associative(capsys):
    base = algebra("K.alg")
    report = hopf_product_on_homology(PermutationModel(base, 4))
    assert report.unit_ok
    assert report.commutative_violations == []
    assert report.associative_violations == []
    assert report.primitive_product_violations == []
    assert report.checked_pairs > 0
    assert report.checked_triples > 0
    assert report.ok
    print(f"CRITERION 8: PASS - the block-sum product on coinvariant "
          f"homology of gl5(K) is exactly graded-commutative and associative "
          f"({report.checked_pairs} pairs, {report.checked_triples} triples, "
          f"degrees <= 4)")


def test_criterion_9_byte_identical_payloads(capsys):
    # Run from the repository root with relative paths: the payload echoes
    # the document path, and the golden files record these exact bytes.
    commands = {
        "check_sl2": ["check", "fixtures/sl2.alg"],
        "lieify_ut2": ["lieify", "fixtures/ut2.alg"],
        "hc_K": ["hc", "fixtures/K.alg", "--max-degree", "4"],
        "ce_sl2": ["ce", "fixtures/sl2.alg", "--max-degree", "3"],
        "lqt_K_n2": ["lqt", "fixtures/K.alg", "--n", "2", "--max-degree", "2"],
        "lqt_dual_n23": ["lqt", "fixtures/dual_numbers.alg", "--n", "2,3",
                         "--max-degree", "3"],
        "lqt_K_n34": ["lqt", "fixtures/K.alg", "--n", "3,4",
                      "--max-degree", "4"],
        "lqt_dual_n34": ["lqt", "fixtures/dual_numbers.alg", "--n", "3,4",
                         "--max-degree", "3"],
        "check_m3only": ["check", "fixtures/m3only.alg"],
        "ce_sl2_coinv_h": ["ce", "fixtures/sl2.alg", "--coinvariants", "h",
                           "--max-degree", "4"],
        "hc_m3unital": ["hc", "fixtures/m3unital.alg", "--max-degree", "4"],
        # truncated runs: rows with `exact: false`
        "hc_ut2_w3": ["hc", "fixtures/ut2.alg", "--max-degree", "4",
                      "--max-weight", "3"],
        "ce_sl2_coinv_h_w2": ["ce", "fixtures/sl2.alg", "--coinvariants", "h",
                              "--max-degree", "3", "--max-weight", "2"],
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for name, argv in commands.items():
        runs = [subprocess.run(
            [sys.executable, "-m", "homotopyalg", *argv],
            capture_output=True, check=True, cwd=ROOT, env=env)
            for _ in range(2)]
        assert runs[0].stdout == runs[1].stdout, argv
        assert json.loads(runs[0].stdout.decode()), argv
        assert runs[0].stdout == (GOLDEN / f"{name}.json").read_bytes(), argv
    print("CRITERION 9: PASS - two fresh-process runs of every subcommand "
          "produce byte-identical JSON payloads, equal to the golden files")

