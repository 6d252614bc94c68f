"""Command-line front end: parse a system file, run the requested analysis,
and print either a text report or a deterministic structured document."""

from __future__ import annotations

import argparse
import functools
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
from .systemfile import immersion_text, parse_file

_INDEX_PHRASE = {
    INDEX_EXACT_R: "r* = {v}",
    INDEX_EXACT_L: "l* = {v}",
    INDEX_BOUND_R: "r-hat = {v} (upper bound)",
    INDEX_BOUND_L: "l-hat = {v} (upper bound)",
    INDEX_UNDECIDED: "index undecided",
}


@functools.cache
def build_arg_parser():
    """The command line's parser, built on the first call and shared by
    every later one: parse_args keeps no state between calls, and help
    reads the terminal width when it is printed."""
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


def _ideal_phrase(gens):
    if not gens:
        return "whole state space"
    strs = [str(g) for g in gens]
    if strs == ["1"]:
        return "⟨1⟩ = ∅"
    return "⟨" + ", ".join(strs) + "⟩"


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
        "capped": False,  # schema 1 field: a capped analysis raises CapReached
    }
    if report.threshold is not None:
        doc["threshold"] = report.threshold
    if report.planar_depth_bound is not None:
        doc["planar_depth_bound"] = report.planar_depth_bound
    if report.notes:
        doc["notes"] = list(report.notes)
    trace = []
    for rec in report.chain_trace:
        fields = {name: getattr(rec, name) for name, _ in _TRACE_FIELDS}
        # None and () are unset, 0 is a value
        trace.append({"depth": rec.depth,
                      **{name: [str(x) for x in v] if isinstance(v, tuple) else v
                         for name, v in fields.items() if v not in (None, ())}})
    if trace:
        doc["chain_trace"] = trace
    return doc


def _report_text(doc, parsed):
    gens = doc["singular_generators"]
    index = _INDEX_PHRASE[doc["index_kind"]].format(v=doc["index_value"])
    if "threshold" in doc:
        lines = [f"S^{{<{doc['threshold']}}}: {_ideal_phrase(gens)}; {index}"]
    else:
        lines = [f"{index}; S_∞: {_ideal_phrase(gens)}"]
    verdict = doc["verdict"]
    if "pull_back" in doc:
        verdict += " (the lifted system; the pull-back below settles the source)"
    lines += [f"mode: {doc['mode']}", f"route: {doc['route']}",
              f"generic rank: {doc['generic_rank']} of {doc['state_dimension']}",
              f"verdict: {verdict}"]
    if "planar_depth_bound" in doc:
        lines.append(f"planar depth bound: {doc['planar_depth_bound']}")
    if gens:
        lines += ["singular set generators:", *(f"  {g}" for g in gens)]
    lines += [f"note: {note}" for note in doc.get("notes", ())]
    if "chain_trace" in doc:
        lines.append("chain trace:")
        lines += [f"  depth {rec['depth']}: "
                  + "; ".join(text(rec[name]) for name, text in _TRACE_FIELDS if name in rec)
                  for rec in doc["chain_trace"]]
    if "pull_back" in doc:
        lines += _pull_back_text(doc["pull_back"], doc["threshold"] == len(parsed.source_vars))
    return lines


def _pull_back_doc(parsed, report):
    pull = pull_back_singular(parsed.immersed, report.singular_ideal)
    doc = {
        "intersection_generators": [str(g) for g in pull.ideal.groebner_basis()],
        "empty": pull.empty,
        "grade": pull.grade,
        "detail": pull.detail,
    }
    if pull.witness is not None:
        doc["witness"] = [str(c) for c in pull.witness]
    vanish = () if pull.empty else vanishing_coordinates(pull.ideal)
    if vanish:
        doc["vanishing_coordinates"] = list(vanish)
    return doc


def _pull_back_text(doc, settles_source):
    """settles_source: the threshold is the source dimension, so the
    pull-back decides accessibility of the source system."""
    lines = ["pull-back to the image variety:",
             f"  intersection ideal: {_ideal_phrase(doc['intersection_generators'])}",
             f"  empty: {'yes' if doc['empty'] else 'no'} ({doc['grade']}: {doc['detail']})"]
    if "witness" in doc:
        lines.append(f"  witness image point: ({', '.join(doc['witness'])})")
    if "vanishing_coordinates" in doc:
        lines.append("  coordinates forced to vanish on it: "
                     + ", ".join(doc["vanishing_coordinates"]))
    if not settles_source:
        return lines
    if not doc["empty"]:
        return lines + ["  the source system has singular points on im T"]
    if doc["grade"] == "algebraic proof":
        return lines + ["  empty intersection with im T; accessible everywhere"]
    return lines + ["  no sampled image point meets the singular set (sampling, not a proof)"]


def _immersion_doc(parsed):
    """The immersion in the file's names and the lifted system, verified."""
    entries, relations = immersion_text(parsed)
    sys_ = parsed.system
    result = verify_immersion(parsed.analytic, parsed.immersed)
    doc = {
        "targets": list(parsed.immersion.target_vars.names),
        "entries": entries,
        "relations": relations,
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
    return doc


def _immersion_text(doc, parsed, check):
    lines = ["immersion:", "  targets: " + " ".join(doc["targets"])]
    lines += [f"  {name} = {rhs}" for name, rhs in doc["entries"].items()]
    lines += [f"  relation: {rel}" for rel in doc["relations"]]
    lines += ["lifted system:", "  drift: " + ", ".join(doc["lifted_drift"])]
    lines += [f"  input {label}: " + ", ".join(comps)
              for label, comps in doc["lifted_inputs"].items()]
    if not doc["verified"]:
        f = doc["failure"]
        return lines + [f"verification: FAILED ({f['kind']} check, component "
                        f"{f['component']}, field {f['field']}, residue {f['residue']})"]
    lines.append("verification: ok (fields tangent to the relation variety; "
                 "pushforward matches the lift)")
    if check:
        labels = ", ".join(f.label for f in parsed.system.operators())
        lines += [f"  certificate: L_X({rel}) lies in the relation ideal for X in {{{labels}}}"
                  for rel in parsed.immersion.relation_generators()]
    return lines


def _rank_threshold(parsed, args):
    l = getattr(args, "l", None)
    if l is None:
        l = parsed.options.get("rank-threshold")
    if l is None and parsed.immersed is not None:
        l = len(parsed.source_vars)
    return l


def _rank_doc(parsed, session, l):
    report = session.rank_l(parsed.options["mode"], l)
    doc = _report_doc(report, parsed.system)
    if parsed.immersed is not None:
        doc["pull_back"] = _pull_back_doc(parsed, report)
    return doc


_ROUTES = {
    "index": AnalysisSession.index,
    "singular": AnalysisSession.closure,
    "bound": AnalysisSession.bound,
    "strong": lambda session, mode: session.strong(),
}


def _run_command(parsed, args):
    """The run's structured document; every analysis of the run shares one
    session.  Raises CapReached when a depth cap stops the analysis before
    any result."""
    opts = parsed.options
    session = AnalysisSession(parsed.system, opts["max-depth"], opts["seed"])
    command = args.command
    doc = {"schema": 1, "command": command, "system": parsed.name}
    if command in _ROUTES:
        return {**doc, **_report_doc(_ROUTES[command](session, opts["mode"]), parsed.system)}
    if command == "rank":
        l = _rank_threshold(parsed, args)
        if l is None:
            raise ParseError("rank needs a threshold: pass --l or set the "
                             "rank-threshold option", 1, 1)
        return {**doc, **_rank_doc(parsed, session, l)}
    if command == "immerse":
        if parsed.immersion is None:
            raise ParseError("the file declares no immersion block", 1, 1)
        return {**doc, "immersion": _immersion_doc(parsed)}
    # full: the immersion, then the index, bound, strong and rank sections
    if parsed.immersion is not None:
        doc["immersion"] = _immersion_doc(parsed)
    for key in ("index", "bound", "strong"):
        doc[key] = _report_doc(_ROUTES[key](session, opts["mode"]), parsed.system)
    l = _rank_threshold(parsed, args)
    if l is not None:
        doc["rank"] = _rank_doc(parsed, session, l)
    return doc


def _text(doc, parsed, args):
    """The text form of the document; parsed gives the source dimension and
    the --check certificates, which the document does not hold."""
    command = doc["command"]
    if command == "immerse":
        return "\n".join(_immersion_text(doc["immersion"], parsed, args.check))
    if command != "full":
        return "\n".join(_report_text(doc, parsed))
    blocks = [_immersion_text(doc["immersion"], parsed, False)] if "immersion" in doc else []
    for key in ("index", "bound", "strong", "rank"):
        if key in doc:
            title = f"rank {doc[key]['threshold']}" if key == "rank" else key
            blocks.append([f"== {title} ==", *_report_text(doc[key], parsed)])
    return "\n\n".join("\n".join(block) for block in blocks)


def main(argv=None):
    args = build_arg_parser().parse_args(argv)
    try:
        text = Path(args.file).read_text()
    except (OSError, UnicodeDecodeError) as e:
        print(f"error: cannot read {args.file}: {e}", file=sys.stderr)
        return 2
    try:
        parsed = parse_file(text, name=Path(args.file).stem,
                            overrides={"max-depth": args.max_depth, "seed": args.seed})
        doc = _run_command(parsed, args)
    except ValueError as e:  # ParseError and ClosureError included
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
        print(_text(doc, parsed, args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
