"""The README's Library example runs, and prints what its comments say,
and its "Flags:" paragraph names the command line's options.

A public name the example uses that is removed or renamed, or a flag added
or removed without the README, fails here, before a reader finds it.
"""

import ast
import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
COMMANDS = ("check", "lieify", "hc", "ce", "lqt")


def library_example():
    """The Python block under the README's "## Library" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def expected_outputs(code):
    """The comment of every print line, in order."""
    return [line.split("#", 1)[1].strip() for line in code.splitlines()
            if line.startswith("print(")]


def matches(printed, comment):
    """A comment is the printed value, or with "..." the first and last
    entries of a dict whose keys run in steps of one between them and whose
    values all equal theirs."""
    if "..." not in comment:
        return ast.literal_eval(printed) == ast.literal_eval(comment)
    first, last = (ast.literal_eval("{" + part.strip(" {},") + "}")
                   for part in comment.split("..."))
    (lo, value), = first.items()
    (hi, value_hi), = last.items()
    assert value == value_hi
    return ast.literal_eval(printed) == dict.fromkeys(range(lo, hi + 1), value)


def test_the_library_example_prints_what_it_says():
    code = library_example()
    expected = expected_outputs(code)
    assert len(expected) == 3
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected)
    for line, comment in zip(printed, expected):
        assert matches(line, comment), (line, comment)


def flags_paragraph():
    """The README paragraph that starts with "Flags:"."""
    text = README.read_text(encoding="utf-8")
    return text.split("\nFlags: ", 1)[1].split("\n\n", 1)[0]


def help_flags(command):
    """The long options, besides --help, that `command --help` prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-m", "homotopyalg", command, "--help"],
        capture_output=True, text=True, check=True, env=env)
    return set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", result.stdout)) - {
        "--help"}


def test_the_flags_paragraph_names_every_long_option():
    documented = set(re.findall(r"`(--[a-z][a-z-]*)", flags_paragraph()))
    offered = set().union(*map(help_flags, COMMANDS))
    assert documented == offered
