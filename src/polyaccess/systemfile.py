"""System description files: a line-oriented format declaring the state
variables, drift and input fields, an optional immersion block for
transcendental parts, and default analysis options."""

from __future__ import annotations

from typing import NamedTuple

from .errors import ParseError
from .immersion import AnalyticSystem, Entry, ImmersionMap, derive_immersed
from .poly import Polynomial, VarTable, parse_polynomial
from .vectorfields import SystemSpec, VectorField

MODES = ("accessibility", "strong")
OPTION_KEYS = ("max-depth", "seed", "mode", "rank-threshold")
DEFAULTS = {
    "max-depth": None,
    "seed": 0,
    "mode": "accessibility",
    "rank-threshold": None,
}
POSITIVE_KEYS = ("max-depth", "rank-threshold")
_KEYWORDS = ("vars", "drift", "input", "immersion", "options")
_RESERVED = set(_KEYWORDS) | {"targets", "relation", "sin", "cos"}


class ParsedFile(NamedTuple):
    name: str
    system: SystemSpec
    source_vars: VarTable
    options: dict
    immersion: ImmersionMap = None
    analytic: AnalyticSystem = None
    immersed: object = None

    @property
    def parse_vars(self):
        """Table the component expressions are written over: source names
        plus one name per immersion atom."""
        if self.immersion is None:
            return self.source_vars
        n = len(self.source_vars)
        return VarTable(self.source_vars.names + self.immersion.target_vars.names[n:])


def _retag(p, table):
    """The same polynomial over a table of the same length: the names
    change, the slots do not."""
    return Polynomial(table, p.coeffs, _clean=False)


def _strip_comment(raw):
    return raw.split("#", 1)[0].rstrip()


def _first_word(body):
    return body.split(None, 1)[0] if body.split() else ""


def _split_components(text, line, base_col):
    parts = []
    col = base_col
    for chunk in text.split(","):
        if not chunk.strip():
            raise ParseError("empty component", line, col, expected="a polynomial")
        parts.append((chunk, col))
        col += len(chunk) + 1
    return parts


def _identifier_list(rest, line, col, what):
    names = rest.split()
    if not names:
        raise ParseError(f"no {what} listed", line, col, expected=f"{what} names")
    for name in names:
        if name.lower() in _RESERVED:
            raise ParseError(f"{name!r} is a reserved word", line, col)
    try:
        return VarTable(names)
    except ValueError as e:
        raise ParseError(str(e), line, col) from None


class _Sections:
    def __init__(self):
        self.vars = None  # (line, rest)
        self.drift = None  # (line, col, text)
        self.inputs = []  # (line, name, col, text)
        self.immersion = None  # list of block lines
        self.options = None  # list of block lines


def _classify(text):
    numbered = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = _strip_comment(raw)
        if body.strip():
            numbered.append((lineno, body))
    sec = _Sections()
    i = 0
    while i < len(numbered):
        lineno, body = numbered[i]
        word = _first_word(body).rstrip(":")
        stripped = body.strip()
        if word == "vars":
            if sec.vars is not None:
                raise ParseError("duplicate vars section", lineno, body.find("vars") + 1)
            sec.vars = (lineno, stripped[len("vars"):].strip())
            i += 1
        elif word == "drift":
            if sec.drift is not None:
                raise ParseError("duplicate drift section", lineno, 1)
            head, _, rest = body.partition(":")
            if not _:
                raise ParseError("missing ':' after drift", lineno, len(head) + 1,
                                 expected="':'")
            sec.drift = (lineno, len(head) + 2, rest)
            i += 1
        elif word == "input":
            head, _, rest = body.partition(":")
            if not _:
                raise ParseError("missing ':' after input name", lineno, len(head) + 1,
                                 expected="':'")
            fields = head.split()
            if len(fields) != 2:
                raise ParseError("input needs exactly one name", lineno, 1,
                                 expected="input <name>:")
            if fields[1].lower() in _RESERVED:
                raise ParseError(f"{fields[1]!r} is a reserved word", lineno, 1)
            sec.inputs.append((lineno, fields[1], len(head) + 2, rest))
            i += 1
        elif word in ("immersion", "options"):
            if stripped.rstrip(":") != word:
                raise ParseError(f"unexpected text after {word!r}", lineno, 1,
                                 expected=f"'{word}:'")
            block = []
            i += 1
            while i < len(numbered):
                nline, nbody = numbered[i]
                if _first_word(nbody).rstrip(":") in _KEYWORDS:
                    break
                block.append((nline, nbody))
                i += 1
            if word == "immersion":
                if sec.immersion is not None:
                    raise ParseError("duplicate immersion section", lineno, 1)
                sec.immersion = block
            else:
                if sec.options is not None:
                    raise ParseError("duplicate options section", lineno, 1)
                sec.options = block
        else:
            raise ParseError(
                f"unknown section {word!r}", lineno, 1,
                expected="one of vars, drift, input, immersion, options",
            )
    return sec


def _parse_options(block):
    opts = dict(DEFAULTS)
    if block is None:
        return opts
    for lineno, body in block:
        parts = body.split(None, 1)
        if len(parts) != 2:
            raise ParseError("option needs a key and a value", lineno, 1,
                             expected="<key> <value>")
        key, value = parts[0], parts[1].strip()
        col = body.find(value) + 1
        if key not in OPTION_KEYS:
            raise ParseError(f"unknown option {key!r}", lineno, 1,
                             expected="one of " + ", ".join(OPTION_KEYS))
        if key == "mode":
            if value not in MODES:
                raise ParseError(f"unknown mode {value!r}", lineno, col,
                                 expected="accessibility or strong")
            opts[key] = value
        else:
            try:
                number = int(value)
            except ValueError:
                raise ParseError(f"{key} needs an integer", lineno, col) from None
            if key in POSITIVE_KEYS and number <= 0:
                raise ParseError(f"{key} must be positive", lineno, col)
            opts[key] = number
    return opts


def _lookup_hooks(entries, source_vars, aliased, target_vars):
    """Hooks resolving sin/cos calls and reciprocal divisions against the
    declared entries; `entries` may still be growing while parsing the
    immersion block itself."""
    n = len(source_vars)

    def resolve_call(fname, arg, line, col):
        if fname not in ("sin", "cos"):
            raise ParseError(f"unknown function {fname!r}", line, col,
                             expected="'sin' or 'cos'")
        idx = _single_var_index(arg)
        if idx is None or idx >= n:
            raise ParseError(f"{fname}() takes a single state variable", line, col)
        for j, e in enumerate(entries):
            if e.kind == fname and e.arg == idx:
                return Polynomial.variable(aliased, j)
        raise ParseError(
            f"undeclared transcendental {fname}({source_vars.names[idx]})",
            line, col, expected="a matching immersion entry",
        )

    def resolve_division(num, den, line, col):
        den_t = _retag(den, target_vars)
        for j, e in enumerate(entries):
            if e.kind == "reciprocal" and e.expr == den_t:
                return num * Polynomial.variable(aliased, j)
        raise ParseError(
            "undeclared reciprocal denominator", line, col,
            expected=f"an immersion entry 1/({den})",
        )

    return resolve_call, resolve_division


def _parse_entry_rhs(rhs, lineno, col, source_vars, aliased, target_vars, hooks):
    s = rhs.strip()
    col += len(rhs) - len(rhs.lstrip())
    if (s.startswith("sin(") or s.startswith("cos(")) and s.endswith(")"):
        inner = s[4:-1].strip()
        if inner not in source_vars:
            raise ParseError(f"unknown source variable {inner!r}", lineno, col + 4,
                             expected="a source variable")
        return Entry(s[:3], source_vars.index(inner))
    compact = s.replace(" ", "")
    if compact.startswith("1/"):
        after = s[s.index("/") + 1:]
        den = parse_polynomial(after, aliased, line=lineno,
                               col=col + s.index("/") + 1,
                               resolve_call=hooks[0], resolve_division=hooks[1])
        return Entry("reciprocal", expr=_retag(den, target_vars))
    p = parse_polynomial(s, source_vars, line=lineno, col=col)
    return Entry("polynomial", expr=p.map_vars(target_vars, range(len(source_vars))))


def _parse_immersion(block, source_vars):
    targets = None
    entry_lines = {}
    relation_lines = []
    for lineno, body in block:
        stripped = body.strip()
        word = _first_word(stripped).rstrip(":")
        if word == "targets":
            if targets is not None:
                raise ParseError("duplicate targets line", lineno, 1)
            targets = (lineno, stripped[len("targets"):].strip())
        elif word == "relation":
            head, colon, rest = body.partition(":")
            if not colon:
                raise ParseError("missing ':' after relation", lineno, 1, expected="':'")
            relation_lines.append((lineno, len(head) + 2, rest))
        elif "=" in stripped:
            name, _, rhs = body.partition("=")
            entry_name = name.strip()
            if entry_name in entry_lines:
                raise ParseError(f"duplicate entry for {entry_name!r}", lineno, 1)
            entry_lines[entry_name] = (lineno, len(name) + 2, rhs)
        else:
            raise ParseError("unrecognized immersion line", lineno, 1,
                             expected="targets, an entry 'z = ...', or relation:")
    if targets is None:
        raise ParseError("immersion block needs a targets line",
                         block[0][0] if block else 1, 1)
    t_line, t_rest = targets
    target_vars = _identifier_list(t_rest, t_line, 1, "target variable")
    n, nstar = len(source_vars), len(target_vars)
    if nstar < n:
        raise ParseError("fewer targets than source variables", t_line, 1)
    try:
        aliased = VarTable(source_vars.names + target_vars.names[n:])
    except ValueError as e:
        raise ParseError(str(e), t_line, 1) from None
    entries = [Entry("coordinate", j) for j in range(n)]
    hooks = _lookup_hooks(entries, source_vars, aliased, target_vars)
    for j in range(n, nstar):
        tname = target_vars.names[j]
        if tname not in entry_lines:
            raise ParseError(f"missing entry for target {tname!r}", t_line, 1)
        lineno, col, rhs = entry_lines.pop(tname)
        entries.append(
            _parse_entry_rhs(rhs, lineno, col, source_vars, aliased, target_vars, hooks)
        )
    for name, (lineno, col, _) in entry_lines.items():
        if name in target_vars:
            raise ParseError(
                f"{name!r} is a source coordinate; its entry is implicit",
                lineno, 1,
            )
        raise ParseError(f"entry for undeclared target {name!r}", lineno, 1)
    try:
        imap = ImmersionMap(source_vars, target_vars, entries)
    except ValueError as e:
        raise ParseError(str(e), t_line, 1) from None
    relations = imap.relation_ideal()
    for lineno, col, text in relation_lines:
        rel = parse_polynomial(text, aliased, line=lineno, col=col)
        if not relations.normal_form(_retag(rel, imap.target_vars)).is_zero():
            raise ParseError(
                "relation does not follow from the declared entries", lineno, col,
            )
    return imap, aliased, hooks


def _single_var_index(p):
    if len(p.coeffs) != 1:
        return None
    (mono, c), = p.coeffs.items()
    if c != 1 or sum(mono) != 1:
        return None
    return mono.index(1)


def parse_file(text, name=None, overrides=None):
    """Parse a system description; overrides (from CLI flags) take precedence
    over the file's options block.  A max-depth or rank-threshold override
    that is not positive raises ValueError, as the file's option does."""
    sec = _classify(text)
    options = _parse_options(sec.options)
    if overrides:
        for key, value in overrides.items():
            if value is not None:
                if key in POSITIVE_KEYS and value <= 0:
                    raise ValueError(f"{key} must be positive")
                options[key] = value
    if sec.vars is None:
        raise ParseError("missing vars section", 1, 1, expected="vars <names>")
    v_line, v_rest = sec.vars
    source_vars = _identifier_list(v_rest, v_line, 1, "state variable")
    n = len(source_vars)
    imap = aliased = call_hook = div_hook = None
    if sec.immersion is not None:
        imap, aliased, (call_hook, div_hook) = _parse_immersion(sec.immersion, source_vars)
    parse_vars = aliased if aliased is not None else source_vars

    def parse_components(lineno, col, text_, label):
        parts = _split_components(text_, lineno, col)
        if len(parts) != n:
            raise ParseError(
                f"{label} needs {n} components, found {len(parts)}", lineno, col,
            )
        comps = [
            parse_polynomial(chunk, parse_vars, line=lineno, col=ccol,
                             resolve_call=call_hook, resolve_division=div_hook)
            for chunk, ccol in parts
        ]
        if imap is not None:
            comps = [_retag(c, imap.target_vars) for c in comps]
        return comps

    field_vars = imap.target_vars if imap is not None else source_vars
    if sec.drift is not None:
        d_line, d_col, d_text = sec.drift
        drift = VectorField(parse_components(d_line, d_col, d_text, "drift"), "f")
    else:
        zero = Polynomial.zero(field_vars)
        drift = VectorField([zero] * n, "f")
    if not sec.inputs:
        raise ParseError("at least one input section is required",
                         v_line, 1, expected="input <name>: <components>")
    seen = set()
    inputs = []
    for lineno, gname, col, text_ in sec.inputs:
        if gname in seen:
            raise ParseError(f"duplicate input name {gname!r}", lineno, 1)
        seen.add(gname)
        inputs.append(VectorField(parse_components(lineno, col, text_, f"input {gname}"),
                                  gname))
    if imap is None:
        system = SystemSpec(source_vars, drift, inputs, name=name)
        return ParsedFile(name, system, source_vars, options)
    analytic = AnalyticSystem(imap, drift, inputs, name=name)
    immersed = derive_immersed(analytic)
    return ParsedFile(name, immersed.system, source_vars, options,
                      immersion=imap, analytic=analytic, immersed=immersed)


def immersion_text(parsed):
    """The immersion's entries (target name -> right-hand side) and its
    relations, written over the file's names."""
    imap = parsed.immersion
    alias = parsed.parse_vars
    n = len(parsed.source_vars)
    entries = {name: e.describe(alias)
               for name, e in zip(imap.target_vars.names[n:], imap.entries[n:])}
    relations = [str(_retag(r, alias)) for r in imap.relation_generators()]
    return entries, relations


def render_file(parsed):
    """Canonical text form; parsing it back yields an equivalent file."""
    alias = parsed.parse_vars
    fields = parsed.system if parsed.immersion is None else parsed.analytic

    def comps(field):
        return ", ".join(str(_retag(c, alias)) for c in field.components)

    out = ["vars " + " ".join(parsed.source_vars.names), "drift: " + comps(fields.drift)]
    out += [f"input {g.label}: " + comps(g) for g in fields.inputs]
    if parsed.immersion is not None:
        entries, relations = immersion_text(parsed)
        out += ["immersion:", "  targets " + " ".join(parsed.immersion.target_vars.names)]
        out += [f"  {name} = {rhs}" for name, rhs in entries.items()]
        out += [f"  relation: {rel}" for rel in relations]
    extras = {k: v for k, v in parsed.options.items() if v != DEFAULTS[k]}
    if extras:
        out.append("options:")
        for key in OPTION_KEYS:
            if key in extras:
                out.append(f"  {key} {extras[key]}")
    return "\n".join(out) + "\n"
