"""Golden output: `--format structured` and `--format text` of every command
on the shipped demo systems, the command line's help at 80 columns
(cli_help.txt), and the exact index search over the random systems of seeds
0-399 (sweep_answers.txt), compared byte for byte with the files in
tests/golden/.

An intended output change regenerates the files with
`PYTHONPATH=src python tests/test_golden.py` and shows up in their diff.
"""

import contextlib
import io
import os
from pathlib import Path

import pytest

from polyaccess import exact_index_analysis, stabilize_chain
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


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, command, extra in CASES:
        for fmt in FORMATS:
            _golden_path(name, command, fmt).write_text(_run(name, command, extra, fmt))
    os.environ["COLUMNS"] = "80"
    (GOLDEN / "cli_help.txt").write_text(_help_text())
    (GOLDEN / "sweep_answers.txt").write_text(_sweep_answers())
