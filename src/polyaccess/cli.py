"""Command-line front end: parse a system file, run the requested analysis,
and print either a text report or a deterministic structured document."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .analysis import (
    INDEX_BOUND_L,
    INDEX_BOUND_R,
    INDEX_EXACT_L,
    INDEX_EXACT_R,
    INDEX_UNDECIDED,
    AnalysisSession,
)
from .errors import CapReached, ParseError
from .immersion import pull_back_singular, vanishing_coordinates, verify_immersion
from .systemfile import entry_text, parse_file

_INDEX_PHRASE = {
    INDEX_EXACT_R: "r* = {v}",
    INDEX_EXACT_L: "l* = {v}",
    INDEX_BOUND_R: "r-hat = {v} (upper bound)",
    INDEX_BOUND_L: "l-hat = {v} (upper bound)",
    INDEX_UNDECIDED: "index undecided",
}


def build_arg_parser():
    ap = argparse.ArgumentParser(
        prog="polyaccess",
        description="Accessibility analysis of polynomial control-affine "
                    "systems: singular sets as ideals, exact indices, and "
                    "certified upper bounds.",
    )
    sub = ap.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("file", help="system description file")
        p.add_argument("--max-depth", type=int, metavar="K",
                       help="bracket depth cap (overrides the file)")
        p.add_argument("--seed", type=int, metavar="N",
                       help="seed for the generic-rank sampling")
        p.add_argument("--format", choices=("text", "structured"), default="text",
                       help="output format")
        p.add_argument("--strict", action="store_true",
                       help="exit nonzero when a depth cap stops the analysis")
        return p

    add("index", "exact accessibility index and limit singular set")
    add("singular", "limit singular set by invariant closure, no index claim")
    add("bound", "module-chain stabilization bound and its singular set")
    add("strong", "strong accessibility: index and singular set")
    p = add("rank", "locus where the family rank stays below a threshold")
    p.add_argument("--l", type=int, metavar="L", dest="l",
                   help="rank threshold (defaults to the file's rank-threshold)")
    p = add("immerse", "derive the polynomial lift of a transcendental system")
    p.add_argument("--check", action="store_true",
                   help="print the verification certificates")
    add("full", "every analysis that applies to the file")
    return ap


def _overrides(args):
    return {
        "max-depth": args.max_depth,
        "seed": args.seed,
    }


def _ideal_phrase(gens):
    if not gens:
        return "whole state space"
    strs = [str(g) for g in gens]
    if strs == ["1"]:
        return "⟨1⟩ = ∅"
    return "⟨" + ", ".join(strs) + "⟩"


def _index_phrase(report):
    return _INDEX_PHRASE[report.index_kind].format(v=report.index_value)


def _headline(report):
    if report.threshold is not None:
        return (f"S^{{<{report.threshold}}}: {_ideal_phrase(report.singular_generators())}"
                f"; {_index_phrase(report)}")
    return f"{_index_phrase(report)}; S_∞: {_ideal_phrase(report.singular_generators())}"


# ChainRecord fields in trace order, each with its text form
_TRACE_FIELDS = (
    ("family_size", "family {}".format),
    ("generic_rank", "generic rank {}".format),
    ("minor_generators", lambda gens: "minors " + _ideal_phrase(gens)),
    ("radical_status", "radical {}".format),
    ("invariance_witness", str),
    ("module_gb_size", "module basis {}".format),
    ("retained_labels", lambda labels: "columns " + ", ".join(labels)),
)


def _set_fields(rec):
    """(field, text form, value) of the record's set fields; None and () are
    unset, 0 is a value."""
    return [(name, text, getattr(rec, name)) for name, text in _TRACE_FIELDS
            if getattr(rec, name) not in (None, ())]


def _trace_lines(report):
    return [f"  depth {rec.depth}: " + "; ".join(text(v) for _, text, v in _set_fields(rec))
            for rec in report.chain_trace]


def _report_lines(report, system, verdict_note=None):
    n = len(system.vars)
    lines = [_headline(report)]
    lines.append(f"mode: {report.mode}")
    lines.append(f"route: {report.route}")
    lines.append(f"generic rank: {report.generic_rank} of {n}")
    verdict = report.verdict
    if verdict_note:
        verdict += f" ({verdict_note})"
    lines.append(f"verdict: {verdict}")
    if report.planar_depth_bound is not None:
        lines.append(f"planar depth bound: {report.planar_depth_bound}")
    gens = report.singular_generators()
    if gens:
        lines.append("singular set generators:")
        lines.extend(f"  {g}" for g in gens)
    for note in report.notes:
        lines.append(f"note: {note}")
    trace = _trace_lines(report)
    if trace:
        lines.append("chain trace:")
        lines.extend(trace)
    return lines


def _report_doc(report, system):
    doc = {
        "mode": report.mode,
        "route": report.route,
        "verdict": report.verdict,
        "generic_rank": report.generic_rank,
        "state_dimension": len(system.vars),
        "index_kind": report.index_kind,
        "index_value": report.index_value,
        "singular_generators": [str(g) for g in report.singular_generators()],
        "capped": report.capped,
    }
    if report.threshold is not None:
        doc["threshold"] = report.threshold
    if report.planar_depth_bound is not None:
        doc["planar_depth_bound"] = report.planar_depth_bound
    if report.notes:
        doc["notes"] = list(report.notes)
    trace = [{"depth": rec.depth,
              **{name: [str(x) for x in v] if isinstance(v, tuple) else v
                 for name, _, v in _set_fields(rec)}}
             for rec in report.chain_trace]
    if trace:
        doc["chain_trace"] = trace
    return doc


def _pull_back(parsed, report):
    pull = pull_back_singular(parsed.immersed, report.singular_ideal)
    vanish = () if pull.empty else vanishing_coordinates(pull.ideal)
    return pull, vanish


def _pull_back_lines(parsed, report, pull, vanish):
    lines = ["pull-back to the image variety:"]
    lines.append(f"  intersection ideal: {_ideal_phrase(pull.ideal.groebner_basis())}")
    lines.append(f"  empty: {'yes' if pull.empty else 'no'} ({pull.grade}: {pull.detail})")
    if pull.witness is not None:
        point = ", ".join(str(c) for c in pull.witness)
        lines.append(f"  witness image point: ({point})")
    if vanish:
        lines.append("  coordinates forced to vanish on it: " + ", ".join(vanish))
    n_source = len(parsed.source_vars)
    if report.threshold == n_source:
        if pull.empty and pull.grade == "algebraic proof":
            lines.append("  empty intersection with im T; accessible everywhere")
        elif pull.empty:
            lines.append("  no sampled image point meets the singular set "
                         "(sampling, not a proof)")
        else:
            lines.append("  the source system has singular points on im T")
    return lines


def _pull_back_doc(pull, vanish):
    doc = {
        "intersection_generators": [str(g) for g in pull.ideal.groebner_basis()],
        "empty": pull.empty,
        "grade": pull.grade,
        "detail": pull.detail,
    }
    if pull.witness is not None:
        doc["witness"] = [str(c) for c in pull.witness]
    if vanish:
        doc["vanishing_coordinates"] = list(vanish)
    return doc


def _immersion_section(parsed, check):
    """Text lines and document of the immersion, verified once."""
    imap = parsed.immersion
    alias = parsed.parse_vars
    identity = list(range(len(imap.target_vars)))
    n = len(parsed.source_vars)
    entries = {imap.target_vars.names[j]: entry_text(imap, j, alias)
               for j in range(n, len(imap.target_vars))}
    relations = [r.map_vars(alias, identity) for r in imap.relation_generators()]
    sys_ = parsed.system
    result = verify_immersion(parsed.analytic, parsed.immersed)
    lines = ["immersion:"]
    lines.append("  targets: " + " ".join(imap.target_vars.names))
    lines.extend(f"  {name} = {text}" for name, text in entries.items())
    lines.extend(f"  relation: {rel}" for rel in relations)
    lines.append("lifted system:")
    lines.append("  drift: " + ", ".join(str(c) for c in sys_.drift.components))
    for g in sys_.inputs:
        lines.append(f"  input {g.label}: " + ", ".join(str(c) for c in g.components))
    if result.ok:
        lines.append("verification: ok (fields tangent to the relation variety; "
                     "pushforward matches the lift)")
    else:
        lines.append(f"verification: FAILED ({result.kind} check, component "
                     f"{result.index}, field {result.field_label}, "
                     f"residue {result.residue})")
    if check and result.ok:
        labels = ", ".join(f.label for f in sys_.operators())
        for rel in imap.relation_generators():
            lines.append(f"  certificate: L_X({rel}) lies in the relation ideal "
                         f"for X in {{{labels}}}")
    doc = {
        "targets": list(imap.target_vars.names),
        "entries": entries,
        "relations": [str(r) for r in relations],
        "lifted_drift": [str(c) for c in sys_.drift.components],
        "lifted_inputs": {g.label: [str(c) for c in g.components] for g in sys_.inputs},
        "verified": result.ok,
    }
    if not result.ok:
        doc["failure"] = {
            "kind": result.kind,
            "component": result.index,
            "field": result.field_label,
            "residue": str(result.residue),
        }
    return lines, doc


def _rank_threshold(parsed, args):
    l = getattr(args, "l", None)
    if l is None:
        l = parsed.options.get("rank-threshold")
    if l is None and parsed.immersed is not None:
        l = len(parsed.source_vars)
    return l


def _report_section(report, system, verdict_note=None):
    return _report_lines(report, system, verdict_note), _report_doc(report, system)


def _rank_section(parsed, session, l):
    report = session.rank_l(parsed.options["mode"], l)
    if parsed.immersed is None:
        return _report_section(report, parsed.system)
    lines, doc = _report_section(
        report, parsed.system,
        "the lifted system; the pull-back below settles the source")
    pull, vanish = _pull_back(parsed, report)
    lines.extend(_pull_back_lines(parsed, report, pull, vanish))
    doc["pull_back"] = _pull_back_doc(pull, vanish)
    return lines, doc


_ROUTES = {
    "index": AnalysisSession.index,
    "singular": AnalysisSession.closure,
    "bound": AnalysisSession.bound,
    "strong": lambda session, mode: session.strong(),
}


def _run_command(parsed, args):
    """Returns (text_lines, doc); every analysis of the run shares one
    session.  Raises CapReached when a depth cap stops the analysis before
    any result."""
    opts = parsed.options
    session = AnalysisSession(parsed.system, opts["max-depth"], opts["seed"])
    command = args.command
    doc = {"schema": 1, "command": command, "system": parsed.name}
    if command in _ROUTES:
        report = _ROUTES[command](session, opts["mode"])
        lines, rdoc = _report_section(report, parsed.system)
        return lines, {**doc, **rdoc}
    if command == "rank":
        l = _rank_threshold(parsed, args)
        if l is None:
            raise ParseError("rank needs a threshold: pass --l or set the "
                             "rank-threshold option", 1, 1)
        lines, rdoc = _rank_section(parsed, session, l)
        return lines, {**doc, **rdoc}
    if command == "immerse":
        if parsed.immersion is None:
            raise ParseError("the file declares no immersion block", 1, 1)
        lines, doc["immersion"] = _immersion_section(parsed, args.check)
        return lines, doc
    if command == "full":
        return _run_full(parsed, args, session, doc)
    raise AssertionError(command)


def _run_full(parsed, args, session, doc):
    """The immersion, then the index, bound, strong and rank sections."""
    lines = []
    if parsed.immersion is not None:
        ilines, doc["immersion"] = _immersion_section(parsed, check=False)
        lines.extend(ilines + [""])
    mode = parsed.options["mode"]
    sections = [(key, key, _report_section(_ROUTES[key](session, mode), parsed.system))
                for key in ("index", "bound", "strong")]
    l = _rank_threshold(parsed, args)
    if l is not None:
        sections.append((f"rank {l}", "rank", _rank_section(parsed, session, l)))
    for i, (title, key, (slines, sdoc)) in enumerate(sections):
        if i:
            lines.append("")
        lines.append(f"== {title} ==")
        lines.extend(slines)
        doc[key] = sdoc
    return lines, doc


def main(argv=None):
    args = build_arg_parser().parse_args(argv)
    try:
        text = Path(args.file).read_text()
    except OSError as e:
        print(f"error: cannot read {args.file}: {e}", file=sys.stderr)
        return 2
    name = Path(args.file).stem
    try:
        parsed = parse_file(text, name=name, overrides=_overrides(args))
    except ValueError as e:  # ParseError and ClosureError included
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        lines, doc = _run_command(parsed, args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CapReached as e:
        hint = "" if e.what == "module chain" else " or use the bound command"
        message = (f"cap reached: {e.what} stopped at depth {e.cap} without a "
                   f"result; raise --max-depth{hint}")
        if args.strict:
            print(f"error: {message}", file=sys.stderr)
            return 3
        print(message)
        return 0
    if args.format == "structured":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
