"""Command-line interface: output shapes, determinism, exit codes."""

import argparse
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import polyaccess.analysis
import polyaccess.cli
import polyaccess.modules
from polyaccess import Polynomial, VarTable, parse_polynomial
from polyaccess.cli import main
from polyaccess.immersion import VerifyResult

ROOT = Path(__file__).resolve().parent.parent
SYSTEMS = ROOT / "demos" / "systems"

PLANAR = """\
vars x1 x2
drift: 0, 0
input g1: x2, 0
input g2: 0, x1^2
"""

CIRCLE = """\
vars x1 x2 x3
drift: 0, x2^2 + x3^2 - 1, 0
input g: x2, x2*x3, -x2^2
"""

UNICYCLE = """\
vars x1 x2 x3
input g1: cos(x3), sin(x3), 0
input g2: 0, 0, 1
immersion:
  targets z1 z2 z3 z4 z5
  z4 = sin(x3)
  z5 = cos(x3)
options:
  rank-threshold 3
"""

ZERO = """\
vars x1 x2
drift: 0, 0
input g: 0, 0
"""


@pytest.fixture
def planar_file(tmp_path):
    f = tmp_path / "planar.sys"
    f.write_text(PLANAR)
    return str(f)


@pytest.fixture
def circle_file(tmp_path):
    f = tmp_path / "circle.sys"
    f.write_text(CIRCLE)
    return str(f)


@pytest.fixture
def unicycle_file(tmp_path):
    f = tmp_path / "unicycle.sys"
    f.write_text(UNICYCLE)
    return str(f)


class TestTextOutput:
    def test_index_headline(self, planar_file, capsys):
        """The index summary states the exact index and the singular set."""
        assert main(["index", planar_file]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "r* = 2; S_∞: ⟨x1, x2⟩"
        assert "verdict: generically accessible" in out
        assert "planar depth bound: 22" in out

    def test_strong_headline(self, planar_file, capsys):
        """Strong analysis reports l* on the driftless planar system."""
        assert main(["strong", planar_file]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "l* = 2; S_∞: ⟨x1, x2⟩"

    def test_singular_undecided(self, circle_file, capsys):
        """The closure route reports no index claim."""
        assert main(["singular", circle_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("index undecided")
        assert "route: invariant-closure" in out

    def test_bound(self, planar_file, capsys):
        """The bound route reports r-hat."""
        assert main(["bound", planar_file]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("r-hat = 2 (upper bound)")

    def test_rank_pull_back(self, unicycle_file, capsys):
        """Immersed rank analysis settles the source system."""
        assert main(["rank", unicycle_file]) == 0
        out = capsys.readouterr().out
        assert "S^{<3}: ⟨z4^2 + z5^2⟩" in out
        assert "empty intersection with im T; accessible everywhere" in out

    def test_immerse(self, unicycle_file, capsys):
        """The immerse command prints the lift and its verification."""
        assert main(["immerse", "--check", unicycle_file]) == 0
        out = capsys.readouterr().out
        assert "z4 = sin(x3)" in out
        assert "input g1: z5, z4, 0, 0, 0" in out
        assert "verification: ok" in out

    def test_full_sections(self, planar_file, capsys):
        """The full command emits every applicable section."""
        assert main(["full", planar_file]) == 0
        out = capsys.readouterr().out
        assert "== index ==" in out
        assert "== bound ==" in out
        assert "== strong ==" in out


class TestTextBranches:
    """Text lines that no golden file reaches."""

    def test_verification_failed(self, unicycle_file, capsys, monkeypatch):
        """A failing verification names its witness, prints no certificate
        even under --check, and the document carries the failure."""
        residue = parse_polynomial("2*z4*z5", VarTable(["z4", "z5"]))
        failing = VerifyResult(False, "tangency", 0, "g1", residue)
        monkeypatch.setattr(polyaccess.cli, "verify_immersion", lambda asys, imm: failing)
        assert main(["immerse", "--check", unicycle_file]) == 0
        out = capsys.readouterr().out
        assert ("verification: FAILED (tangency check, component 0, field g1, "
                "residue 2*z4*z5)") in out.splitlines()
        assert "certificate:" not in out
        assert main(["immerse", "--check", unicycle_file, "--format", "structured"]) == 0
        doc = json.loads(capsys.readouterr().out)["immersion"]
        assert doc["verified"] is False
        assert doc["failure"] == {"kind": "tangency", "component": 0, "field": "g1",
                                  "residue": "2*z4*z5"}

    def test_sampled_emptiness(self, unicycle_file, capsys, monkeypatch):
        """Emptiness found only by sampling is labelled as not a proof."""
        original = polyaccess.cli.pull_back_singular

        def sampled(imm, ideal):
            return original(imm, ideal)._replace(
                grade="sampled", detail="no sampled image point lies in the singular set")

        monkeypatch.setattr(polyaccess.cli, "pull_back_singular", sampled)
        assert main(["rank", unicycle_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == [
            "  empty: yes (sampled: no sampled image point lies in the singular set)",
            "  no sampled image point meets the singular set (sampling, not a proof)",
        ]
        assert main(["rank", unicycle_file, "--format", "structured"]) == 0
        doc = json.loads(capsys.readouterr().out)["pull_back"]
        assert (doc["empty"], doc["grade"]) == (True, "sampled")

    def test_immerse_without_check(self, unicycle_file, capsys):
        """Certificates are printed only under --check."""
        assert main(["immerse", unicycle_file]) == 0
        out = capsys.readouterr().out
        assert out.rstrip().splitlines()[-1].startswith("verification: ok")
        assert "certificate:" not in out
        assert main(["immerse", "--check", unicycle_file]) == 0
        assert "  certificate: L_X(z4^2 + z5^2 - 1) lies in the relation ideal for X in " \
               "{g1, g2}" in capsys.readouterr().out

    def test_rank_defaults_to_source_dimension(self, tmp_path, capsys):
        """An immersed file with no rank-threshold option takes l = n, the
        source dimension: the shipped unicycle without its options block
        gives the shipped file's document."""
        shipped = SYSTEMS / "unicycle.sys"
        text = shipped.read_text()
        bare = tmp_path / "unicycle.sys"
        bare.write_text(text[:text.index("options:")])
        assert main(["rank", str(shipped), "--format", "structured"]) == 0
        expected = capsys.readouterr().out
        assert main(["rank", str(bare), "--format", "structured"]) == 0
        assert capsys.readouterr().out == expected
        assert json.loads(expected)["threshold"] == 3

    def test_rank_below_source_dimension(self, capsys):
        """At l = 2 < n the pull-back does not settle the source system, and
        the text says nothing about it."""
        assert main(["rank", str(SYSTEMS / "unicycle.sys"), "--l", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "S^{<2}: ⟨z4, z5⟩; r-hat = 1 (upper bound)"
        assert lines[-3:] == [
            "pull-back to the image variety:",
            "  intersection ideal: ⟨1⟩ = ∅",
            "  empty: yes (algebraic proof: the sum contains 1)",
        ]


class TestStructuredOutput:
    def test_schema_and_fields(self, planar_file, capsys):
        """Documents carry the schema tag and canonical generator strings."""
        assert main(["index", planar_file, "--format", "structured"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == 1
        assert doc["command"] == "index"
        assert doc["index_kind"] == "exact r*"
        assert doc["index_value"] == 2
        assert doc["singular_generators"] == ["x1", "x2"]
        assert doc["verdict"] == "generically accessible"
        assert doc["chain_trace"][0]["depth"] == 0

    def test_byte_identical_runs(self, unicycle_file, capsys):
        """Two runs of the same analysis print identical bytes."""
        assert main(["rank", unicycle_file, "--format", "structured"]) == 0
        first = capsys.readouterr().out
        assert main(["rank", unicycle_file, "--format", "structured"]) == 0
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["pull_back"]["empty"] is True
        assert doc["pull_back"]["grade"] == "algebraic proof"

    def test_immerse_structured(self, unicycle_file, capsys):
        """Immersion documents list entries, relations, and the lift."""
        assert main(["immerse", unicycle_file, "--format", "structured"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["immersion"]["verified"] is True
        assert doc["immersion"]["entries"]["z4"] == "sin(x3)"
        assert doc["immersion"]["relations"] == ["z4^2 + z5^2 - 1"]


class TestExitCodes:
    def test_missing_file(self, capsys):
        """Unreadable files exit 2."""
        assert main(["index", "/nonexistent/x.sys"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_undecodable_file(self, tmp_path, capsys):
        """A file that is not UTF-8 text exits 2 with an error, not a traceback."""
        f = tmp_path / "utf16.sys"
        f.write_bytes(b"\xff\xfev\x00a\x00r\x00s\x00 \x00x\x001\x00")
        assert main(["index", str(f)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {f}: ")

    def test_parse_error(self, tmp_path, capsys):
        """Grammar errors exit 2 and point at the offending line."""
        f = tmp_path / "bad.sys"
        f.write_text("vars x1\ninput g: x1, x2\n")
        assert main(["index", str(f)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_cap_strict(self, planar_file, capsys):
        """A depth cap without a result exits 3 under --strict."""
        assert main(["index", planar_file, "--max-depth", "1", "--strict"]) == 3
        assert "cap reached" in capsys.readouterr().err

    def test_cap_lax(self, planar_file, capsys):
        """Without --strict the cap is reported on stdout with exit 0."""
        assert main(["index", planar_file, "--max-depth", "1"]) == 0
        assert "cap reached" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["index", "bound"])
    @pytest.mark.parametrize("depth", ["0", "-1"])
    def test_nonpositive_max_depth(self, planar_file, capsys, command, depth):
        """--max-depth gets the check of the file's max-depth option: a cap
        below 1 exits 2 before any analysis."""
        assert main([command, planar_file, "--max-depth", depth, "--strict"]) == 2
        err = capsys.readouterr().err
        assert "max-depth must be positive" in err
        assert "cap reached" not in err

    def test_cap_hint(self, planar_file, capsys):
        """The cap message suggests the bound command only when a stage
        other than the module chain stopped: planar's chain is stable at
        depth 2, so a cap of 1 stops the bound command's own chain."""
        assert main(["bound", planar_file, "--max-depth", "1", "--strict"]) == 3
        err = capsys.readouterr().err
        assert "module chain stopped at depth 1" in err
        assert err.rstrip().endswith("raise --max-depth")
        assert main(["index", planar_file, "--max-depth", "1", "--strict"]) == 3
        err = capsys.readouterr().err
        assert "exact index search stopped at depth 1" in err
        assert err.rstrip().endswith("raise --max-depth or use the bound command")

    def test_rank_without_threshold(self, planar_file, capsys):
        """rank needs --l or a file rank-threshold."""
        assert main(["rank", planar_file]) == 2
        assert "threshold" in capsys.readouterr().err

    def test_rank_bad_threshold(self, planar_file, capsys):
        """Thresholds outside 1..n exit 2."""
        assert main(["rank", planar_file, "--l", "9"]) == 2

    def test_immerse_without_block(self, planar_file, capsys):
        """immerse on a plain polynomial file exits 2."""
        assert main(["immerse", planar_file]) == 2

    def test_all_zero_fields(self, tmp_path, capsys):
        """A system whose fields are all zero is reported nowhere accessible."""
        f = tmp_path / "zero.sys"
        f.write_text(ZERO)
        for argv in (["index"], ["bound"], ["rank", "--l", "1"], ["full"]):
            assert main([argv[0], str(f)] + argv[1:]) == 0
            out = capsys.readouterr().out
            assert "generic rank: 0 of 2" in out
            assert "verdict: nowhere accessible" in out
            assert "whole state space" in out

    def test_all_zero_fields_structured(self, tmp_path, capsys):
        """full reports every section of an all-zero system with the zero ideal."""
        f = tmp_path / "zero.sys"
        f.write_text(ZERO)
        assert main(["full", str(f), "--format", "structured"]) == 0
        doc = json.loads(capsys.readouterr().out)
        for section in ("index", "bound", "strong"):
            assert doc[section]["generic_rank"] == 0
            assert doc[section]["verdict"] == "nowhere accessible"
            assert doc[section]["singular_generators"] == []


class TestOneSessionPerRun:
    @staticmethod
    def _full_calls(monkeypatch, capsys, name):
        counts = Counter()
        targets = [(polyaccess.analysis, attr)
                   for attr in ("new_brackets", "chain_depths", "invariant_closure")]
        targets += [(polyaccess.modules, "module_buchberger"),
                    (polyaccess.modules.PolySubmodule, "adjoin")]
        for owner, attr in targets:
            original = getattr(owner, attr)

            def counted(*args, _attr=attr, _original=original, **kwargs):
                counts[_attr] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counted)
        assert main(["full", str(SYSTEMS / f"{name}.sys"), "--format", "structured"]) == 0
        capsys.readouterr()
        return counts

    def test_circle3d_full(self, monkeypatch, capsys):
        """full computes each family depth, chain and closure once: brackets to
        depth 1 for accessibility and depth 2 for strong, one chain per mode,
        with each mode's family depth 1 taken from its chain."""
        counts = self._full_calls(monkeypatch, capsys, "circle3d")
        assert counts["chain_depths"] == 2
        assert counts["invariant_closure"] <= 1
        assert counts["new_brackets"] == 1

    def test_pendulum_full(self, monkeypatch, capsys):
        """Every route shares one chain per mode of the cart-pole."""
        counts = self._full_calls(monkeypatch, capsys, "pendulum")
        assert counts["chain_depths"] == 2

    @pytest.mark.parametrize("name, bases, adjoins", [
        ("planar", 18, 10),
        ("circle3d", 16, 19),
        ("unicycle", 9, 2),
        ("pendulum", 35, 38),
    ])
    def test_engine_calls(self, monkeypatch, capsys, name, bases, adjoins):
        """The generic test, index search, bound and rank read one module
        chain per mode: full builds this many Groebner bases and adjoins
        this many columns."""
        counts = self._full_calls(monkeypatch, capsys, name)
        assert counts["module_buchberger"] == bases
        assert counts["adjoin"] == adjoins

    @pytest.mark.parametrize("name, extensions", [
        ("planar", 2),
        ("circle3d", 1),
        ("unicycle", 6),
        ("pendulum", 10),
    ])
    def test_family_extensions(self, monkeypatch, capsys, name, extensions):
        """Each mode's bracket family takes generations 0 and 1 from its
        chain: full brackets only this many deeper generations, one
        new_brackets call from the session each."""
        counts = self._full_calls(monkeypatch, capsys, name)
        assert counts["new_brackets"] == extensions


class TestDerivativeReuse:
    def test_full_computes_each_partial_once(self, monkeypatch, capsys):
        """Asked again for a partial of the same polynomial object, full gets
        the one already computed."""
        first = {}  # (id(poly), variable) -> (poly, partial)
        recomputed = []
        calls = 0
        original = Polynomial.partial_derivative

        def counted(self, which):
            nonlocal calls
            calls += 1
            d = original(self, which)
            kept = first.setdefault((id(self), which), (self, d))
            if kept[1] is not d:
                recomputed.append((self, which))
            return d

        monkeypatch.setattr(Polynomial, "partial_derivative", counted)
        assert main(["full", str(SYSTEMS / "circle3d.sys"), "--format", "structured"]) == 0
        capsys.readouterr()
        assert recomputed == []
        assert calls > len(first)  # partials were asked for again


class TestFlagOverrides:
    def test_seed_flag(self, planar_file, capsys):
        """Seeds change sampling but not certified results."""
        assert main(["index", planar_file, "--seed", "42"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "r* = 2; S_∞: ⟨x1, x2⟩"

    def test_order_flag(self, planar_file, capsys):
        """There is no monomial order flag: degrevlex is the only order, and
        --order is an argument error with exit 2."""
        with pytest.raises(SystemExit) as raised:
            main(["index", planar_file, "--order", "lex"])
        assert raised.value.code == 2
        assert "--order" in capsys.readouterr().err


def _fresh_process(script, *args):
    """stdout of a new interpreter that runs script with the package on its
    path and args as its sys.argv[1:]."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestParserReuse:
    """The parser is built on the first main call and reused; no call leaves
    state behind for the next."""

    def test_import_builds_no_parser(self):
        """Importing the command line constructs no ArgumentParser."""
        script = ("import argparse\n"
                  "built = []\n"
                  "init = argparse.ArgumentParser.__init__\n"
                  "def counted(self, *args, **kwargs):\n"
                  "    built.append(1)\n"
                  "    init(self, *args, **kwargs)\n"
                  "argparse.ArgumentParser.__init__ = counted\n"
                  "import polyaccess.cli\n"
                  "print(len(built))\n")
        assert _fresh_process(script) == "0\n"

    def test_later_calls_build_no_parser(self, planar_file, capsys, monkeypatch):
        """After the first call, runs, argument errors and help construct no
        ArgumentParser."""
        assert main(["index", planar_file]) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert main(["index", planar_file]) == 0
        assert main(["rank", planar_file, "--l", "2", "--format", "structured"]) == 0
        for argv in (["index", planar_file, "--order", "lex"], ["rank", "--help"]):
            with pytest.raises(SystemExit):
                main(argv)
        capsys.readouterr()
        assert built == []

    def test_threshold_not_carried(self, planar_file, capsys):
        """A --l given to one call is not a threshold for the next: rank
        without one still exits 2, and full adds no rank section."""
        assert main(["full", planar_file]) == 0
        alone = capsys.readouterr().out
        assert main(["rank", planar_file, "--l", "2"]) == 0
        assert main(["rank", planar_file]) == 2
        assert "rank needs a threshold" in capsys.readouterr().err
        assert main(["rank", planar_file, "--l", "2"]) == 0
        capsys.readouterr()
        assert main(["full", planar_file]) == 0
        assert capsys.readouterr().out == alone
        assert "== rank" not in alone

    def test_check_not_carried(self, unicycle_file, capsys):
        """immerse after immerse --check prints no certificate lines."""
        assert main(["immerse", "--check", unicycle_file]) == 0
        assert "certificate:" in capsys.readouterr().out
        assert main(["immerse", unicycle_file]) == 0
        assert "certificate:" not in capsys.readouterr().out

    def test_strict_not_carried(self, planar_file, capsys):
        """A capped run exits 3 under --strict and 0 when run again without it."""
        argv = ["index", planar_file, "--max-depth", "1"]
        assert main(argv + ["--strict"]) == 3
        assert "cap reached" in capsys.readouterr().err
        assert main(argv) == 0
        assert "cap reached" in capsys.readouterr().out

    def test_argument_error_then_valid(self, planar_file, capsys):
        """After an argument error, a valid call prints what a fresh process
        prints."""
        with pytest.raises(SystemExit) as raised:
            main(["index", planar_file, "--order", "lex"])
        assert raised.value.code == 2
        capsys.readouterr()
        assert main(["index", planar_file]) == 0
        fresh = _fresh_process("import sys\n"
                               "from polyaccess.cli import main\n"
                               "sys.exit(main(sys.argv[1:]))\n", "index", planar_file)
        assert capsys.readouterr().out == fresh
