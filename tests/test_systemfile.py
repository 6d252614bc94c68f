"""System description files: grammar, immersion blocks, options, rendering."""

import importlib.util
from pathlib import Path

import pytest

from polyaccess import ParseError, Polynomial, parse_file, render_file, verify_immersion
from polyaccess.cli import main
from polyaccess.immersion import jacobian

ROOT = Path(__file__).resolve().parent.parent

PLANAR = """\
# planar system
vars x1 x2
drift: 0, 0
input g1: x2, 0
input g2: 0, x1^2
"""

UNICYCLE = """\
vars x1 x2 x3
input g1: cos(x3), sin(x3), 0
input g2: 0, 0, 1
immersion:
  targets z1 z2 z3 z4 z5
  z4 = sin(x3)
  z5 = cos(x3)
  relation: z4^2 + z5^2 - 1
options:
  rank-threshold 3
"""

PENDULUM = """\
vars x1 x2 x3 x4
drift: x2, cos(x3)*x4^2 / (2 - sin(x3)^2) - 10, x4, sin(x3)*cos(x3)*x4^2 / (2 - sin(x3)^2)
input g: 0, 1/(2 - sin(x3)^2), 0, sin(x3)/(2 - sin(x3)^2)
immersion:
  targets z1 z2 z3 z4 z5 z6 z7
  z5 = sin(x3)
  z6 = cos(x3)
  z7 = 1/(2 - sin(x3)^2)
"""

POLY_ENTRY = """\
vars x1 x2 x3
drift: x2, sin(x3), x1^2
input g: 0, 0, 1
immersion:
  targets z1 z2 z3 z4 z5 z6
  z4 = sin(x3)
  z5 = cos(x3)
  z6 = x1^2 + 1
"""


class TestBasicGrammar:
    def test_planar(self):
        """Plain polynomial files parse to a system over the source table."""
        parsed = parse_file(PLANAR, name="planar")
        assert parsed.source_vars.names == ("x1", "x2")
        assert parsed.immersion is None
        assert [str(c) for c in parsed.system.inputs[1].components] == ["0", "x1^2"]
        assert parsed.options["seed"] == 0

    def test_drift_optional(self):
        """A missing drift section means the zero drift."""
        parsed = parse_file("vars x1\ninput g: 1\n")
        assert parsed.system.drift.is_zero()

    def test_comments_and_blanks(self):
        """Comments and blank lines are ignored everywhere."""
        text = "# lead\n\nvars x1  # trailing\n\ninput g: x1 # c\n"
        parsed = parse_file(text)
        assert [str(c) for c in parsed.system.inputs[0].components] == ["x1"]

    def test_component_arity(self):
        """Wrong component counts are positioned errors."""
        with pytest.raises(ParseError) as info:
            parse_file("vars x1 x2\ndrift: 0\ninput g: 1, 0\n")
        assert info.value.line == 2

    def test_duplicate_input(self):
        """Input names must be unique."""
        with pytest.raises(ParseError, match="duplicate input"):
            parse_file("vars x1\ninput g: x1\ninput g: 1\n")

    def test_unknown_section(self):
        """Unknown sections name the alternatives."""
        with pytest.raises(ParseError, match="unknown section"):
            parse_file("vars x1\nbogus: 1\ninput g: x1\n")

    def test_unknown_variable_position(self):
        """Component errors carry line and column."""
        with pytest.raises(ParseError) as info:
            parse_file("vars x1 x2\ninput g: x1, x3\n")
        assert (info.value.line, info.value.col) == (2, 14)

    def test_missing_vars(self):
        """Fields cannot precede a vars declaration."""
        with pytest.raises(ParseError, match="missing vars"):
            parse_file("input g: 1\n")

    def test_reserved_names(self):
        """Section keywords cannot be variable names."""
        with pytest.raises(ParseError, match="reserved"):
            parse_file("vars sin x1\ninput g: 1, 1\n")

    @pytest.mark.parametrize("text, line, col, message", [
        ("vars x1\nvars x2\ninput g: 1\n", 2, 1, "duplicate vars section"),
        ("vars x1\ndrift: 0\ndrift: 1\ninput g: 1\n", 3, 1, "duplicate drift section"),
        ("vars x1\ninput g: 1\nimmersion:\n  targets z1 z2\n  z2 = sin(x1)\n"
         "immersion:\n  targets z1\n", 6, 1, "duplicate immersion section"),
        ("vars x1\ninput g: 1\noptions:\n  seed 1\noptions:\n  seed 2\n", 5, 1,
         "duplicate options section"),
        ("vars x1\ninput g: 1\nimmersion:\n  targets z1 z2\n  targets z1 z2\n"
         "  z2 = sin(x1)\n", 5, 1, "duplicate targets line"),
        ("vars x1 x2\ndrift x1, x2\ninput g: 1, 0\n", 2, 13,
         "missing ':' after drift (expected ':')"),
        ("vars x1\ninput g 1\n", 2, 10, "missing ':' after input name (expected ':')"),
        ("vars x1\ninput g: 1\nimmersion:\n  targets z1 z2 z3\n  z2 = sin(x1)\n"
         "  z3 = cos(x1)\n  relation z2^2 + z3^2 - 1\n", 7, 1,
         "missing ':' after relation (expected ':')"),
        ("vars x1\ninput g h: 1\n", 2, 1,
         "input needs exactly one name (expected input <name>:)"),
        ("vars x1 x2\ninput g: x1, \n", 2, 13, "empty component (expected a polynomial)"),
        ("vars\ninput g: 1\n", 1, 1,
         "no state variable listed (expected state variable names)"),
        ("vars x1\ninput g: 1\noptions: now\n", 3, 1,
         "unexpected text after 'options' (expected 'options:')"),
        ("vars x1\ninput g: 1\noptions:\n  seed\n", 4, 1,
         "option needs a key and a value (expected <key> <value>)"),
        ("vars x1\ndrift: x1\n", 1, 1,
         "at least one input section is required (expected input <name>: <components>)"),
        ("vars x1 x2\ninput g: sin(x1 + x2), 0\nimmersion:\n  targets z1 z2 z3\n"
         "  z3 = sin(x1)\n", 2, 10, "sin() takes a single state variable"),
        ("vars x1\ninput g: tan(x1)\nimmersion:\n  targets z1 z2\n  z2 = sin(x1)\n", 2, 10,
         "unknown function 'tan' (expected 'sin' or 'cos')"),
        ("vars x1 x2\ninput g: 1, 0\nimmersion:\n  targets z1\n", 4, 1,
         "fewer targets than source variables"),
        ("vars x1\ninput g: 1\nimmersion:\n  targets z1 z2\n  z2 = sin(x1)\n"
         "  z3 = cos(x1)\n", 6, 1, "entry for undeclared target 'z3'"),
        ("vars x1\ninput g: 1\nimmersion:\n  targets z1 z2\n  z2 = sin(y)\n", 5, 12,
         "unknown source variable 'y' (expected a source variable)"),
    ])
    def test_error_positions(self, text, line, col, message):
        """Each malformed file names its fault at a fixed line and column."""
        with pytest.raises(ParseError) as info:
            parse_file(text)
        assert (info.value.line, info.value.col) == (line, col)
        assert str(info.value) == f"line {line}, col {col}: {message}"


class TestOptions:
    def test_parsed(self):
        """All option keys round through."""
        text = ("vars x1\ninput g: x1\noptions:\n  max-depth 9\n"
                "  seed 4\n  mode strong\n  rank-threshold 1\n")
        opts = parse_file(text).options
        assert opts == {"max-depth": 9, "seed": 4, "mode": "strong", "rank-threshold": 1}

    def test_no_order_option(self):
        """There is no order option: degrevlex is the only monomial order,
        and an order line is an unknown option at its position."""
        text = "vars x1\ninput g: x1\noptions:\n  seed 4\n  order lex\n"
        with pytest.raises(ParseError, match="unknown option 'order'") as err:
            parse_file(text)
        assert (err.value.line, err.value.col) == (5, 1)
        assert "order" not in parse_file("vars x1\ninput g: x1\n").options

    def test_bad_values(self):
        """Bad option values are positioned errors."""
        for line in ("mode foo", "max-depth 0", "seed x",
                     "rank-threshold -2", "bogus 3"):
            with pytest.raises(ParseError):
                parse_file(f"vars x1\ninput g: x1\noptions:\n  {line}\n")

    def test_overrides_win(self):
        """CLI overrides replace file options; None leaves them alone."""
        text = "vars x1\ninput g: x1\noptions:\n  seed 4\n  mode strong\n"
        opts = parse_file(text, overrides={"seed": 7, "mode": None}).options
        assert opts["seed"] == 7
        assert opts["mode"] == "strong"

    def test_overrides_checked(self):
        """Overrides get the file options' checks: a non-positive max-depth
        is rejected, a non-positive seed is not."""
        text = "vars x1\ninput g: x1\n"
        for value in (0, -1):
            with pytest.raises(ValueError, match="max-depth must be positive"):
                parse_file(text, overrides={"max-depth": value})
        assert parse_file(text, overrides={"seed": -3}).options["seed"] == -3


class TestImmersionBlock:
    def test_unicycle(self):
        """Transcendental calls resolve against the declared entries."""
        parsed = parse_file(UNICYCLE, name="unicycle")
        assert parsed.immersion is not None
        assert [str(c) for c in parsed.system.inputs[0].components] == \
            ["z5", "z4", "0", "0", "0"]
        assert parsed.options["rank-threshold"] == 3

    def test_pendulum_reciprocal(self):
        """Reciprocal denominators match entries up to polynomial identity."""
        parsed = parse_file(PENDULUM, name="pendulum")
        assert [str(c) for c in parsed.system.inputs[0].components] == \
            ["0", "z7", "0", "z5*z7", "0", "0", "0"]
        assert [str(c) for c in parsed.system.drift.components] == \
            ["z2", "z4^2*z6*z7 - 10", "z4", "z4^2*z5*z6*z7",
             "z4*z6", "-z4*z5", "2*z4*z5*z6*z7^2"]

    def test_undeclared_transcendental(self):
        """sin of an angle with no entry is an error."""
        text = ("vars x1 x2\ninput g: sin(x1), 0\nimmersion:\n"
                "  targets z1 z2 z3\n  z3 = sin(x2)\n")
        with pytest.raises(ParseError, match="undeclared transcendental"):
            parse_file(text)

    def test_undeclared_reciprocal(self):
        """Division by an undeclared denominator is an error."""
        text = ("vars x1\ninput g: 1/(1 + x1^2)\nimmersion:\n"
                "  targets z1 z2\n  z2 = sin(x1)\n")
        with pytest.raises(ParseError, match="undeclared reciprocal"):
            parse_file(text)

    def test_missing_entry(self):
        """Every non-prefix target needs exactly one entry."""
        text = "vars x1\ninput g: x1\nimmersion:\n  targets z1 z2\n"
        with pytest.raises(ParseError, match="missing entry"):
            parse_file(text)

    def test_prefix_entry_rejected(self):
        """Identity prefix entries are implicit and may not be written."""
        text = ("vars x1\ninput g: x1\nimmersion:\n  targets z1 z2\n"
                "  z1 = x1\n  z2 = sin(x1)\n")
        with pytest.raises(ParseError, match="implicit"):
            parse_file(text)

    def test_wrong_relation(self):
        """Relations must follow from the declared entries."""
        text = ("vars x1\ninput g: x1\nimmersion:\n  targets z1 z2 z3\n"
                "  z2 = sin(x1)\n  z3 = cos(x1)\n  relation: z2 - 1\n")
        with pytest.raises(ParseError, match="relation does not follow"):
            parse_file(text)

    def test_good_relation_accepted(self):
        """Consequences of the auto relations pass the membership check."""
        text = ("vars x1\ninput g: x1\nimmersion:\n  targets z1 z2 z3\n"
                "  z2 = sin(x1)\n  z3 = cos(x1)\n"
                "  relation: z2^2 + z3^2 - 1\n"
                "  relation: z2^4 + 2*z2^2*z3^2 + z3^4 - 1\n")
        parsed = parse_file(text)
        assert parsed.immersion is not None

    def test_polynomial_entry(self, tmp_path, capsys):
        """An entry z6 = x1^2 + 1 adds the relation z6 = z1^2 + 1, the
        Jacobian row (2*z1, 0, 0) and the lifted drift 2*z1*z2; the lift
        verifies, and the file round-trips."""
        parsed = parse_file(POLY_ENTRY, name="poly")
        imap = parsed.immersion
        assert str(imap.relation_generators()[1]) == "-z1^2 + z6 - 1"
        assert [str(d) for d in jacobian(imap)[5]] == ["2*z1", "0", "0"]
        assert str(parsed.system.drift.components[5]) == "2*z1*z2"
        assert verify_immersion(parsed.analytic, parsed.immersed).ok
        f = tmp_path / "poly.sys"
        f.write_text(POLY_ENTRY)
        assert main(["immerse", "--check", str(f)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "immersion:",
            "  targets: z1 z2 z3 z4 z5 z6",
            "  z4 = sin(x3)",
            "  z5 = cos(x3)",
            "  z6 = x1^2 + 1",
            "  relation: z4^2 + z5^2 - 1",
            "  relation: -x1^2 + z6 - 1",
            "lifted system:",
            "  drift: z2, z4, z1^2, z1^2*z5, -z1^2*z4, 2*z1*z2",
            "  input g: 0, 0, 1, z5, -z4, 0",
            "verification: ok (fields tangent to the relation variety; "
            "pushforward matches the lift)",
            "  certificate: L_X(z4^2 + z5^2 - 1) lies in the relation ideal for X in {f, g}",
            "  certificate: L_X(-z1^2 + z6 - 1) lies in the relation ideal for X in {f, g}",
        ]
        rendered = render_file(parsed)
        again = parse_file(rendered, name="poly")
        assert again.immersion.entries == imap.entries
        assert (again.system.drift, again.system.inputs) == \
            (parsed.system.drift, parsed.system.inputs)
        assert render_file(again) == rendered


class TestRoundTrip:
    def test_fields_and_options_survive(self):
        """parse(render(parse(f))) reproduces fields, options, entries."""
        for text, name in ((PLANAR, "planar"), (UNICYCLE, "unicycle"),
                           (PENDULUM, "pendulum")):
            first = parse_file(text, name=name)
            rendered = render_file(first)
            second = parse_file(rendered, name=name)
            assert second.system.drift == first.system.drift
            assert second.system.inputs == first.system.inputs
            assert second.options == first.options
            if first.immersion is not None:
                assert second.immersion.entries == first.immersion.entries
                assert second.immersion.target_vars == first.immersion.target_vars
            assert render_file(second) == rendered

    def test_sweep_files_survive(self):
        """The benchmark's 400 random system files parse to their term
        lists, and parse(render(parse(f))) gives equal systems."""
        spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        for seed in range(400):
            first = parse_file(workloads.system_file(seed))
            system = first.system
            _, drift, inputs = workloads.random_system(seed)
            for field, terms in zip((system.drift,) + system.inputs, [drift] + inputs):
                assert field.components == tuple(Polynomial.from_terms(system.vars, t)
                                                 for t in terms)
            second = parse_file(render_file(first))
            assert second.source_vars == first.source_vars
            assert second.system.drift == system.drift
            assert second.system.inputs == system.inputs

    def test_render_is_stable(self):
        """Rendering the same parse twice is byte-identical."""
        parsed = parse_file(PENDULUM, name="pendulum")
        assert render_file(parsed) == render_file(parsed)
