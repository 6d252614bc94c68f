"""Golden output: `--format structured` and `--format text` of every command
on the shipped demo systems, the command line's help at 80 columns
(cli_help.txt), the exact index search over the random systems of seeds
0-399 (sweep_answers.txt) and the outcome of parse_polynomial on random
strings (parse_outcomes.txt), compared byte for byte with the files in
tests/golden/.

An intended output change regenerates the files with
`PYTHONPATH=src python tests/test_golden.py` and shows up in their diff.
"""

import contextlib
import io
import os
import random
import re
from pathlib import Path

import pytest

from polyaccess import (
    ParseError,
    Polynomial,
    VarTable,
    exact_index_analysis,
    parse_polynomial,
    stabilize_chain,
)
from polyaccess.cli import main
from test_acceptance import random_system

ROOT = Path(__file__).resolve().parent.parent
SYSTEMS = ROOT / "demos" / "systems"
GOLDEN = Path(__file__).resolve().parent / "golden"

COMMANDS = ("index", "singular", "bound", "strong", "rank", "full")
# state dimension for files without a rank-threshold, None for immersed files
SYSTEM_DIMS = {"planar": 2, "circle3d": 3, "unicycle": None, "pendulum": None}
# output format -> golden file suffix
FORMATS = {"structured": "json", "text": "txt"}


def _cases():
    for name, dim in SYSTEM_DIMS.items():
        for command in COMMANDS + (("immerse",) if dim is None else ()):
            extra = []
            if command == "rank" and dim is not None:
                extra = ["--l", str(dim)]
            if command == "immerse":
                extra = ["--check"]
            yield name, command, extra


CASES = list(_cases())
IDS = [f"{name}-{command}" for name, command, _ in CASES]


def _run(name, command, extra, fmt):
    argv = [command, str(SYSTEMS / f"{name}.sys"), "--format", fmt, *extra]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue()


def _golden_path(name, command, fmt):
    return GOLDEN / f"{name}_{command}.{FORMATS[fmt]}"


@pytest.mark.parametrize("name, command, extra", CASES, ids=IDS)
def test_structured_output(name, command, extra):
    assert (_run(name, command, extra, "structured")
            == _golden_path(name, command, "structured").read_text())


@pytest.mark.parametrize("name, command, extra", CASES, ids=IDS)
def test_text_output(name, command, extra):
    assert _run(name, command, extra, "text") == _golden_path(name, command, "text").read_text()


@pytest.mark.parametrize("fmt", FORMATS)
def test_seed_decides_no_answer(fmt):
    """The seed moves only the sample points of the certified generic rank,
    and no report carries them: at --seed 7 every case prints its golden
    file."""
    for name, command, extra in CASES:
        assert (_run(name, command, [*extra, "--seed", "7"], fmt)
                == _golden_path(name, command, fmt).read_text()), (name, command)


def _help_text():
    """`polyaccess --help` and each command's --help, wrapped to the
    terminal width that COLUMNS gives."""
    blocks = []
    for argv in (["--help"], *([command, "--help"] for command in COMMANDS + ("immerse",))):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 0, argv
        blocks.append(f"$ polyaccess {' '.join(argv)}\n{out.getvalue()}")
    return "\n".join(blocks)


def test_help_text(monkeypatch):
    """The help is pinned at 80 columns, and a narrower terminal read after
    the parser exists still rewraps it."""
    monkeypatch.setenv("COLUMNS", "80")
    wide = _help_text()
    assert wide == (GOLDEN / "cli_help.txt").read_text()
    monkeypatch.setenv("COLUMNS", "60")
    narrow = _help_text()
    assert narrow != wide
    assert max(map(len, narrow.splitlines())) < max(map(len, wide.splitlines()))


def _sweep_answers():
    """One line per random system: index kind, verdict, value, singular
    generators, and r-hat where r* is exact, tab-separated."""
    lines = []
    for seed in range(400):
        system = random_system(seed)
        report = exact_index_analysis(system, auto_route=False)
        r_hat = None
        if report.index_kind == "exact r*":
            r_hat = stabilize_chain(system).r_hat
        gens = "; ".join(map(str, report.singular_generators()))
        lines.append(f"rnd{seed}\t{report.index_kind}\t{report.verdict}\t"
                     f"{report.index_value}\t{gens}\t{r_hat}\n")
    return "".join(lines)


def test_sweep_answers():
    assert _sweep_answers() == (GOLDEN / "sweep_answers.txt").read_text()


# pieces of the random parser inputs: known and unknown names, numbers, every
# operator, blanks, newlines, a call and a character no token matches
PIECES = ("x1", "x2", "x3", "y", "sin", "0", "1", "2", "3", "+", "-", "*", "/", "^",
          "(", ")", " ", "  ", "\n", "$")
PARSE_VARS = VarTable(("x1", "x2", "x3", "z"))


def _random_expression(rng, depth=0):
    """A well-formed expression over PIECES, with blanks and newlines."""
    roll = rng.random()
    if depth > 2 or roll < 0.35:
        return rng.choice(("x1", "x2", "x3", "y", "0", "1", "2", "3"))
    if roll < 0.7:
        op = rng.choice(("+", "-", "*", "/", " + ", " - ", "*\n"))
        return _random_expression(rng, depth + 1) + op + _random_expression(rng, depth + 1)
    wrap = rng.choice(("({})", "-{}", "{}^2", "{}^3", "sin({})", " ( {} ) "))
    return wrap.format(_random_expression(rng, depth + 1))


def _parse_inputs(count=2400):
    """Derandomized parser inputs: half random strings of PIECES, half
    well-formed expressions, of which half get one piece inserted, deleted
    or replaced.  Exponents stay below 10, so every parse is quick."""
    rng = random.Random(2021)
    out = []
    while len(out) < count:
        if len(out) % 2:
            text = "".join(rng.choice(PIECES) for _ in range(rng.randint(0, 10)))
        else:
            text = _random_expression(rng)
            if rng.random() < 0.5:
                k = rng.randint(0, len(text))
                cut = rng.choice((0, 0, 1))
                text = text[:k] + rng.choice(("",) + PIECES) + text[k + cut:]
        if not re.search(r"\d\d\d|\^\s*\d\d", text):
            out.append(text)
    return out


def _hooks():
    """Call and division hooks in the shape of the system file's: sin of a
    variable and division by a polynomial of at most two terms resolve to z,
    anything else is rejected at the position given."""

    def call(name, arg, line, col):
        if name != "sin" or len(arg.coeffs) != 1 or arg.total_degree() != 1:
            raise ParseError(f"cannot resolve {name}({arg})", line, col,
                             expected="sin of one variable")
        return Polynomial.variable(PARSE_VARS, "z")

    def division(num, den, line, col):
        if len(den.coeffs) > 2:
            raise ParseError(f"cannot divide by {den}", line, col)
        return num * Polynomial.variable(PARSE_VARS, "z")

    return {"resolve_call": call, "resolve_division": division}


def _parse_outcomes():
    """One line per input, parsed at line 3, column 7, half of each kind of
    input with hooks: the polynomial, or the ParseError's line, column,
    expected and message."""
    lines = []
    for k, text in enumerate(_parse_inputs()):
        hooks = _hooks() if k % 4 >= 2 else {}
        try:
            outcome = f"= {parse_polynomial(text, PARSE_VARS, line=3, col=7, **hooks)}"
        except ParseError as e:
            outcome = f"! {e.line}\t{e.col}\t{e.expected!r}\t{e}"
        lines.append(f"{text!r}\t{'hooks' if hooks else 'plain'}\t{outcome}\n")
    return "".join(lines)


def test_parse_outcomes():
    assert _parse_outcomes() == (GOLDEN / "parse_outcomes.txt").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, command, extra in CASES:
        for fmt in FORMATS:
            _golden_path(name, command, fmt).write_text(_run(name, command, extra, fmt))
    os.environ["COLUMNS"] = "80"
    (GOLDEN / "cli_help.txt").write_text(_help_text())
    (GOLDEN / "sweep_answers.txt").write_text(_sweep_answers())
    (GOLDEN / "parse_outcomes.txt").write_text(_parse_outcomes())
