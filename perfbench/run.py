"""Benchmark of the homotopyalg command line on the lqt and cyclic-homology paths.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload lqt-K --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seconds 60

Each run of a workload is a fresh ``python -m homotopyalg ARG...`` process,
because a user pays interpreter start-up and every cache cost on every
call.  The loop is closed: one process at a time, the next started only
after the previous one exited, never with ``--jobs``.  Every payload is
checked against closed-form references that do not come from the package.

With ``--trace 0`` the end-to-end metrics are reported: median wall time,
median child CPU time, median child peak RSS, and the median set-up time of
a fresh process that imports the package and parses the workload's document
into an algebra.  With ``--trace 1`` untraced and traced runs alternate;
a traced run (``perfbench/traced.py``) wraps the package's public functions
from outside and reports per-layer span times and size counters.

The inputs are the committed fixtures, so every answer has a closed form.
The seed only decides how the set-up probes are split between the gaps
after the workload's runs and, with ``--workload all``, the order of the workloads.  `attempted`
counts workload runs and set-up probes.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a human-readable
summary goes to standard error.  Scratch files (traces, captured stderr) go
to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

RUN_TIMEOUT_S = 120
SETUP_PROBES = 15


# ---------------------------------------------------------------------------
# Workloads and their references


def _rows(table):
    return [row[1] for row in table["rows"]]


@dataclass(frozen=True)
class LQTReference:
    """Closed-form content of an `lqt` payload.

    `hc` is HC_0.. of the base through max_degree - 1; `stable` is the
    stable homology of gl(A), which Loday-Quillen-Tsygan identifies with
    the Poincare series of Lambda(HC(A)[1]); primitives in degree q are
    HC_{q-1}.  `hopf` says whether the block-sum product check runs (it
    must then hold with no violation) or is reported as skipped.
    """

    sizes: tuple
    hc: tuple
    stable: tuple
    hopf: bool

    def problems(self, payload):
        out = []
        tables, verdicts = payload["tables"], payload["verdicts"]
        degrees = len(self.stable)

        def expect(what, got, want):
            if got != want:
                out.append(f"{what}: got {got}, expected {want}")

        expect("sizes", payload["inputs"]["sizes"], list(self.sizes))
        expect("cyclic_homology", _rows(tables["cyclic_homology"]),
               list(self.hc))
        expect("exterior_on_cyclic", _rows(tables["exterior_on_cyclic"]),
               list(self.stable))
        for entry in tables["matrix_homology"]:
            expect(f"matrix_homology n={entry['n']}", _rows(entry),
                   list(self.stable))
        expect("primitives", _rows(tables["primitives"]),
               [0] + list(self.hc[:degrees - 1]))
        expect("comparison", verdicts["comparison"],
               [[q, "MATCH"] for q in range(degrees)])
        expect("primitive verdicts", verdicts["primitives"],
               [[q, "MATCH"] for q in range(1, degrees)])
        expect("all_match", verdicts["all_match"], True)
        hopf = verdicts["hopf"]
        if self.hopf:
            expect("hopf", {k: hopf[k] for k in (
                "ok", "unit", "commutative_violations",
                "associative_violations", "primitive_product_violations",
                "unstable_triples")},
                {"ok": True, "unit": "ok", "commutative_violations": 0,
                 "associative_violations": 0,
                 "primitive_product_violations": 0, "unstable_triples": 0})
        elif not (isinstance(hopf, str) and hopf.startswith("skipped")):
            out.append(f"hopf: got {hopf!r}, expected a skipped report")
        return out


@dataclass(frozen=True)
class HCReference:
    """Closed-form content of an `hc` payload: dims per degree, all exact."""

    dims: tuple

    def problems(self, payload):
        rows = payload["tables"]["hc"]["rows"]
        want = [[q, d, True] for q, d in enumerate(self.dims)]
        return [] if rows == want else [f"hc: got {rows}, expected {want}"]


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple
    reference: object

    @property
    def document(self):
        return self.argv[1]

    def problems(self, code, stdout):
        """Why a run's result is wrong, or [] when it is right."""
        if code != 0:
            return [f"exit code {code}"]
        try:
            return self.reference.problems(json.loads(stdout))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"malformed payload: {exc!r}"]


# HC(K) is K in even degrees; Lambda(HC(K)[1]) has Poincare series
# (1 + t)(1 + t^3)... = 1, 1, 0, 1, 1.  Over Q, HC(K[e]/e^2) is 2, 0, 2, ...
# (the reduced part is K in each even degree), so the series is
# (1 + t)^2 (1 + t^3)^2... = 1, 2, 1, 2.  HC(T_2) = HC(K x K) = 2, 0, 2, ...
# because Hochschild homology of the triangular algebra equals that of its
# diagonal.  BENCHMARK.json gates on lqt-K and lqt-dual only: on a shared
# two-core host the spread of hc-ut2's median between runs was above the
# widest bound allowed, so it is run by hand (or with --workload all).
WORKLOADS = {w.name: w for w in (
    Workload("lqt-K",
             ("lqt", "fixtures/K.alg", "--n", "3,4", "--max-degree", "4"),
             LQTReference(sizes=(3, 4), hc=(1, 0, 1, 0),
                          stable=(1, 1, 0, 1, 1), hopf=True)),
    Workload("lqt-dual",
             ("lqt", "fixtures/dual_numbers.alg", "--n", "3,4",
              "--max-degree", "3"),
             LQTReference(sizes=(3, 4), hc=(2, 0, 2), stable=(1, 2, 1, 2),
                          hopf=False)),
    Workload("hc-ut2",
             ("hc", "fixtures/ut2.alg", "--max-degree", "8"),
             HCReference(dims=(2, 0) * 4 + (2,))),
)}


# ---------------------------------------------------------------------------
# One child process


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(args):
    """Run `python3 ARGS` from the checkout root; wall time from spawn to
    exit, CPU time and peak RSS of that child alone (from wait4)."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT,
                                env=child_env(), stdout=subprocess.PIPE,
                                stderr=err)
        killer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            killer.cancel()
            killer.join()
            proc.stdout.close()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return Sample(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                  rss_mb=usage.ru_maxrss / 1024.0, code=code,
                  stdout=stdout.decode("utf-8", "replace"), stderr=stderr)


SETUP_CODE = """\
import sys
import homotopyalg
from homotopyalg.documents import document_to_algebra, parse_document
with open(sys.argv[1], encoding="utf-8") as fh:
    document_to_algebra(parse_document(fh.read()))
print(homotopyalg.__file__)
"""


def setup_probe(workload):
    """Start the interpreter, import the package and parse the workload's
    document into an algebra, with no computation."""
    sample = spawn(["-c", SETUP_CODE, workload.document])
    expected = SRC / "homotopyalg" / "__init__.py"
    if sample.code == 0 and Path(sample.stdout.strip()) != expected:
        sample.code = -1
        sample.stderr = f"imported {sample.stdout.strip()}, not {expected}"
    return sample


def workload_run(workload):
    return spawn(["-m", "homotopyalg", *workload.argv])


def traced_run(workload, trace_file):
    sample = spawn([str(HERE / "traced.py"), str(trace_file), *workload.argv])
    try:
        with open(trace_file, encoding="utf-8") as fh:
            trace = json.load(fh)
    except (OSError, ValueError):
        trace = None
    return sample, trace


# ---------------------------------------------------------------------------
# Span aggregation


def aggregate(trace):
    """Per span name: calls, inclusive seconds (spans nested in a span of
    the same name counted once) and self seconds (duration minus children)."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for i, (name, start, end, parent) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "inclusive_s": 0.0,
                                    "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += (end - start) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            agg["inclusive_s"] += end - start
    return out


def span_problems(trace):
    """Why a span list is not a well-formed tree, or []."""
    out = []
    spans = trace["spans"]
    for i, (name, start, end, parent) in enumerate(spans):
        if end < start:
            out.append(f"span {i} {name} ends before it starts")
        if parent >= i:
            out.append(f"span {i} {name} has parent {parent} not before it")
        elif parent >= 0:
            _, pstart, pend, _ = spans[parent]
            if start < pstart or end > pend:
                out.append(f"span {i} {name} is not inside its parent")
    for name, agg in aggregate(trace).items():
        if agg["self_s"] < 0:
            out.append(f"span {name} has negative self time")
    return out


# Per-layer metrics: (metric, unit, better, source, key).  `source` is
# "inclusive" or "self" for a span name, "counter" for a counter, "ratio"
# for a quotient of two counters.  Which end-to-end metric each should move
# on which workload is in README.md.
PER_LAYER = (
    ("documents.parse_s", "s", "lower", "inclusive", "documents.parse_document"),
    ("ainfty.check_stasheff_s", "s", "lower", "inclusive", "ainfty.check_stasheff"),
    ("ainfty.check_stasheff_calls", "count", "lower", "counter", "ainfty.check_stasheff_calls"),
    ("ainfty.cyclic_homology_s", "s", "lower", "inclusive", "ainfty.cyclic_homology"),
    ("ainfty.cyclic_homology_self_s", "s", "lower", "self", "ainfty.cyclic_homology"),
    ("coalgebra.eval_word_calls", "count", "lower", "counter", "coalgebra.eval_word_calls"),
    ("coalgebra.bracket_s", "s", "lower", "inclusive", "coalgebra.bracket"),
    ("coalgebra.read_off_s", "s", "lower", "inclusive", "coalgebra.read_off"),
    ("linfty.check_linfty_s", "s", "lower", "inclusive", "linfty.check_linfty"),
    ("linfty.make_inner_s", "s", "lower", "inclusive", "linfty.make_inner"),
    ("linfty.make_inner_calls", "count", "lower", "counter", "linfty.make_inner_calls"),
    ("linfty.coalgebra_on_homology_s", "s", "lower", "inclusive", "linfty.coalgebra_on_homology"),
    ("linfty.coalgebra_on_homology_self_s", "s", "lower", "self", "linfty.coalgebra_on_homology"),
    ("linfty.pair_words", "count", "lower", "counter", "linfty.pair_words"),
    ("linfty.pair_span_generators", "count", "lower", "counter", "linfty.pair_span_generators"),
    ("constructions.matrix_algebra_s", "s", "lower", "inclusive", "constructions.matrix_algebra"),
    ("constructions.matrix_algebra_self_s", "s", "lower", "self", "constructions.matrix_algebra"),
    ("constructions.tensor_with_associative_self_s", "s", "lower", "self", "constructions.tensor_with_associative"),
    ("constructions.lie_ify_s", "s", "lower", "inclusive", "constructions.lie_ify"),
    ("constructions.lie_ify_self_s", "s", "lower", "self", "constructions.lie_ify"),
    ("constructions.gl_coinvariant_model_s", "s", "lower", "inclusive", "constructions.gl_coinvariant_model"),
    ("constructions.gl_coinvariant_model_self_s", "s", "lower", "self", "constructions.gl_coinvariant_model"),
    ("constructions.models_built", "count", "lower", "counter", "constructions.models_built"),
    ("constructions.zero_weight_words", "count", "lower", "counter", "constructions.zero_weight_words"),
    ("constructions.span_generators", "count", "lower", "counter", "constructions.span_generators"),
    ("chain.quotient_echelon_s", "s", "lower", "inclusive", "chain.quotient_echelon"),
    ("chain.complexes_built", "count", "lower", "counter", "chain.complexes_built"),
    ("chain.echelon_words", "count", "lower", "counter", "chain.echelon_words"),
    ("chain.echelon_generators", "count", "lower", "counter", "chain.echelon_generators"),
    ("chain.echelon_rank", "count", "lower", "counter", "chain.echelon_rank"),
    ("chain.quotient_dim", "count", "lower", "counter", "chain.quotient_dim"),
    ("chain.span_pivot_yield", "ratio", "higher", "ratio", ("chain.echelon_rank", "chain.echelon_generators")),
    ("chain.homology_s", "s", "lower", "inclusive", "chain.homology"),
    ("chain.class_coefficients_s", "s", "lower", "inclusive", "chain.class_coefficients"),
    ("chain.class_coefficients_calls", "count", "lower", "counter", "chain.class_coefficients_calls"),
    ("rational_linalg.insert_calls", "count", "lower", "counter", "rational_linalg.insert_calls"),
    ("rational_linalg.residual_calls", "count", "lower", "counter", "rational_linalg.residual_calls"),
    ("lqt.verify_lqt_s", "s", "lower", "inclusive", "lqt.verify_lqt"),
    ("lqt.hopf_product_s", "s", "lower", "inclusive", "lqt.hopf_product_on_homology"),
    ("lqt.hopf_product_self_s", "s", "lower", "self", "lqt.hopf_product_on_homology"),
    ("lqt.hopf_checked_pairs", "count", "higher", "counter", "lqt.hopf_checked_pairs"),
    ("lqt.hopf_checked_triples", "count", "higher", "counter", "lqt.hopf_checked_triples"),
)


# Metrics that must repeat exactly between traced runs of the same code.
COUNTED = [m for m, _, _, source, _ in PER_LAYER
           if source in ("counter", "ratio")]


def layer_values(trace):
    """Per-layer metric values of one traced run."""
    spans = aggregate(trace)
    counters = trace["counters"]
    out = {}
    for metric, _, _, source, key in PER_LAYER:
        if source == "counter":
            out[metric] = counters.get(key, 0)
        elif source == "ratio":
            num, den = (counters.get(k, 0) for k in key)
            out[metric] = num / den if den else 0.0
        else:
            out[metric] = spans.get(key, {}).get(source + "_s", 0.0)
    return out


# ---------------------------------------------------------------------------
# The measuring loop


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")

    @property
    def failed(self):
        return len(self.failures)


def measure(workload, seed, seconds):
    """End-to-end metrics of `workload` over about `seconds` seconds."""
    rng = random.Random(seed)
    tally = Tally()
    runs, probes = [], []

    def probe():
        sample = setup_probe(workload)
        tally.record("setup", [] if sample.code == 0 else
                     [f"exit code {sample.code}: {sample.stderr.strip()}"])
        probes.append(sample)

    start = time.perf_counter()
    setup_probe(workload)  # warm-up: writes the package's bytecode cache
    while True:
        sample = workload_run(workload)
        tally.record("run", workload.problems(sample.code, sample.stdout))
        runs.append(sample)
        # Spread the probes over the gaps left before the time is up, so
        # that they sample the machine's state as the runs do.
        left = SETUP_PROBES - len(probes)
        probe_s = max((s.wall_s for s in probes), default=0.5)
        spare = seconds - (time.perf_counter() - start) - left * probe_s
        runs_left = max(0, int(spare // max(s.wall_s for s in runs)))
        share = left / (runs_left + 1)
        batch = int(share) + (rng.random() < share - int(share))
        for _ in range(left if runs_left == 0 else batch):
            probe()
        if runs_left == 0:
            break
    metrics = {
        "wall_s": (statistics.median(s.wall_s for s in runs), "s"),
        "cpu_s": (statistics.median(s.cpu_s for s in runs), "s"),
        "peak_rss_mb": (statistics.median(s.rss_mb for s in runs), "MB"),
        "setup_s": (statistics.median(s.wall_s for s in probes), "s"),
    }
    return metrics, tally, [s.wall_s for s in runs]


def measure_traced(workload, seconds):
    """Per-layer metrics: untraced and traced runs alternate, at least one
    of each.  The last trace stays in OUT as trace-<workload>.json."""
    tally = Tally()
    plain, traced, values = [], [], []
    start = time.perf_counter()
    setup_probe(workload)
    trace_file = OUT / f"trace-{workload.name}.json"
    while True:
        if len(plain) <= len(traced):
            sample = workload_run(workload)
            tally.record("run", workload.problems(sample.code, sample.stdout))
            plain.append(sample)
        else:
            trace_file.unlink(missing_ok=True)
            sample, trace = traced_run(workload, trace_file)
            problems = workload.problems(sample.code, sample.stdout)
            if trace is None:
                problems.append("no trace written")
            else:
                problems += span_problems(trace)
                values.append(layer_values(trace))
                varied = [m for m in COUNTED if values[-1][m] != values[0][m]]
                if varied:
                    problems.append(f"counters varied between traced runs: "
                                    f"{varied}")
            tally.record("traced run", problems)
            traced.append(sample)
        elapsed = time.perf_counter() - start
        need = max(s.wall_s for s in plain + traced)
        if elapsed + need > seconds and (plain and traced or elapsed > seconds):
            break
    metrics = {}
    for metric, unit, _, _, _ in PER_LAYER:
        if not values:
            metrics[metric] = (0, unit)
        elif metric in COUNTED:
            metrics[metric] = (values[0][metric], unit)
        else:
            metrics[metric] = (statistics.median(v[metric] for v in values),
                               unit)
    plain_wall = statistics.median(s.wall_s for s in plain)
    traced_wall = statistics.median([s.wall_s for s in traced] or [0.0])
    metrics["trace.traced_wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    return metrics, tally, [s.wall_s for s in plain + traced]


TRACE_METRICS = (("trace.traced_wall_s", "s", "lower"),
                 ("trace.overhead_s", "s", "lower"))


def result_line(metrics, tally):
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def describe(workload, metrics, tally, walls, stream):
    print(f"{workload.name}: {len(walls)} runs, {tally.attempted} attempted, "
          f"{tally.failed} failed, failed_share "
          f"{tally.failed / tally.attempted:.3f}", file=stream)
    print("  run wall times: " + " ".join(f"{w:.3f}" for w in walls),
          file=stream)
    for name, (value, unit) in metrics.items():
        print(f"  {name:46s} {value:14.6f} {unit}", file=stream)
    for failure in tally.failures:
        print(f"  FAILED {failure}", file=stream)


def check_checkout():
    """The package sources and fixtures must be in the checkout."""
    missing = [str(p.relative_to(ROOT)) for p in
               [SRC / "homotopyalg" / "__main__.py"]
               + [ROOT / w.document for w in WORKLOADS.values()]
               if not p.is_file()]
    if missing:
        print(f"error: not a homotopyalg checkout, missing {missing}",
              file=sys.stderr)
        return False
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not check_checkout():
        return 2
    if args.workload == "all":
        names = list(WORKLOADS)
        random.Random(args.seed).shuffle(names)
    else:
        names = [args.workload]
    total = Tally()
    combined = {}
    for name in names:
        workload = WORKLOADS[name]
        if args.trace:
            metrics, tally, walls = measure_traced(workload, args.seconds)
        else:
            metrics, tally, walls = measure(workload, args.seed, args.seconds)
        describe(workload, metrics, tally, walls, sys.stderr)
        total.attempted += tally.attempted
        total.failures += tally.failures
        if args.workload == "all":
            share = tally.failed / tally.attempted
            metrics = {**metrics, "failed_share": (share, "1")}
            for metric, (value, unit) in metrics.items():
                print(f"{name} {metric} {value:.6f} {unit}")
            combined.update({f"{name}.{m}": v for m, v in metrics.items()})
        else:
            combined = metrics
    print(result_line(combined, total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
