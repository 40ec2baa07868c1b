"""Run one homotopyalg command with spans and size counters taken from outside.

Usage: python3 perfbench/traced.py TRACE_FILE ARG...

The ARGs are those of ``python -m homotopyalg``.  Before the command runs,
every public function of the package's modules is replaced by a wrapper,
both in the module that defines it and in every module that imported it by
name; a few public methods that carry the chain-level work are wrapped on
their classes.  Nothing under ``src/`` is edited.  The payload goes to
standard output exactly as without tracing.  When the command ends, the
spans and counters are written to TRACE_FILE as one JSON document:

    {"exit_code": int,
     "spans": [[name, start_s, end_s, parent_index], ...],
     "counters": {name: int}}

A span's parent is the index of the innermost span open when it started,
or -1.  The recorder keeps one stack, so the command must run on one
thread at a time; the benchmark never passes ``--jobs``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

# Modules whose public functions become spans.  `graded` is left out: its
# sign and word helpers run millions of times per command, so wrapping them
# would measure the wrappers.
LAYERS = ("documents", "ainfty", "coalgebra", "linfty", "constructions",
          "chain", "rational_linalg", "lqt")

# Public functions called per word (tens to hundreds of thousands of times
# on the benchmark workloads): counted, not timed.
COUNT_ONLY = {"ainfty.rotate_word", "constructions.gl_entry",
              "constructions.gl_index"}

# Public methods that carry the work of a layer: (module, class, method,
# name).  Spans for the first group; call counts for the second.
METHOD_SPANS = (
    ("chain", "ChainComplex", "__init__", "chain.quotient_echelon"),
    ("chain", "ChainComplex", "homology", "chain.homology"),
    ("chain", "ChainComplex", "class_coefficients", "chain.class_coefficients"),
)
METHOD_COUNTS = (
    ("coalgebra", "Coderivation", "eval_word", "coalgebra.eval_word"),
    ("rational_linalg", "RowReducer", "insert", "rational_linalg.insert"),
    ("rational_linalg", "RowReducer", "residual", "rational_linalg.residual"),
)


class Recorder:
    """Spans and counters of one run, kept in memory until it ends."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = Counter()

    def timed(self, name, fn, sizes=None):
        """Wrap fn in a span; `sizes(counters, result, args, kwargs)` reads
        size counters from what the call returned, after the span closed."""
        spans, stack, counters = self.spans, self.stack, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            counters[name + "_calls"] += 1
            if sizes is not None:
                sizes(counters, result, args, kwargs)
            return result
        return wrapper

    def counted(self, name, fn):
        counters = self.counters
        key = name + "_calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)
        return wrapper


# ---------------------------------------------------------------------------
# Size counters, read from returned objects


def _model_sizes(counters, model, args, kwargs):
    counters["constructions.models_built"] += 1
    counters["constructions.zero_weight_words"] += sum(
        len(words) for words in model.blocks.values())
    counters["constructions.span_generators"] += sum(
        len(gens) for gens in model.spans.values())


def _complex_sizes(counters, _, args, kwargs):
    cx = args[0]
    spans = args[3] if len(args) > 3 else kwargs.get("quotient_spans")
    words = sum(len(keys) for keys in cx.blocks.values())
    inserted = sum(len(gens) for q, gens in (spans or {}).items()
                   if q in cx.blocks)
    counters["chain.complexes_built"] += 1
    counters["chain.echelon_words"] += words
    counters["chain.echelon_generators"] += inserted
    counters["chain.echelon_rank"] += sum(
        red.dim for red in cx.reducers.values())
    counters["chain.quotient_dim"] += sum(cx.dim(q) for q in cx.blocks)
    first = next((keys[0] for keys in cx.blocks.values()), ())
    if first and isinstance(first[0], tuple):
        # keys are (word, word) pairs: the two-factor complex that
        # linfty.coalgebra_on_homology builds for the coproduct
        counters["linfty.pair_words"] += words
        counters["linfty.pair_span_generators"] += inserted


def _hopf_sizes(counters, report, args, kwargs):
    counters["lqt.hopf_checked_pairs"] += report.checked_pairs
    counters["lqt.hopf_checked_triples"] += report.checked_triples


SIZES = {
    "constructions.gl_coinvariant_model": _model_sizes,
    "chain.quotient_echelon": _complex_sizes,
    "lqt.hopf_product_on_homology": _hopf_sizes,
}


def install(recorder):
    """Wrap the package's public functions and the listed methods; returns
    the wrapped `homotopyalg.cli.main`."""
    cli = importlib.import_module("homotopyalg.cli")
    layers = {name: importlib.import_module("homotopyalg." + name)
              for name in LAYERS}
    package = [module for name, module in sys.modules.items()
               if name == "homotopyalg" or name.startswith("homotopyalg.")]
    for short, module in layers.items():
        for attr in module.__all__:
            fn = getattr(module, attr)
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            name = f"{short}.{attr}"
            if name in COUNT_ONLY:
                wrapper = recorder.counted(name, fn)
            else:
                wrapper = recorder.timed(name, fn, SIZES.get(name))
            for other in package:
                for key, value in list(vars(other).items()):
                    if value is fn:
                        setattr(other, key, wrapper)
    for short, cls_name, method, name in METHOD_SPANS:
        cls = getattr(layers[short], cls_name)
        setattr(cls, method,
                recorder.timed(name, getattr(cls, method), SIZES.get(name)))
    for short, cls_name, method, name in METHOD_COUNTS:
        cls = getattr(layers[short], cls_name)
        setattr(cls, method, recorder.counted(name, getattr(cls, method)))
    return recorder.timed("cli.main", cli.main)


def main(argv):
    if len(argv) < 2:
        print("usage: traced.py TRACE_FILE ARG...", file=sys.stderr)
        return 1
    trace_file, command = argv[0], argv[1:]
    recorder = Recorder()
    code = install(recorder)(command)
    sys.stdout.flush()
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump({"exit_code": code, "spans": recorder.spans,
                   "counters": dict(recorder.counters)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
