"""The three workloads.  Each one parses its inputs in ``setup``, runs one
round of identical operations in ``run_round`` (returning each operation's
time and success, and the round's wall time), counts the certified answers
of a round and checks the answers of the first round with ``check``.

Why these three:

- cartpole: one large problem.  The rank-4 locus of the 7-state lifted
  cart-pole and its pull-back through the immersion: a 12-column module chain,
  17k candidate minors, a certified generic rank and a Groebner basis of 363
  generators.  Changes to the Groebner engine, minor enumeration or generic
  rank show here.
- sweep: hundreds of tiny problems.  400 random 2-3-state systems through the
  exact index search, plus the module chain wherever an exact index is found.
  The median shows per-call overhead; the tail shows polynomial gcd work.
- demos: the command line on the shipped systems.  Parsing, immersion
  checks, invariant closure and the repeated analyses inside ``full`` and
  ``strong``; no large basis anywhere.
"""

import contextlib
import io
import itertools
import json
import random
import statistics
import time
import traceback
from fractions import Fraction
from pathlib import Path

SYSTEMS = Path(__file__).resolve().parent.parent / "demos" / "systems"
SWEEP_SIZE = 400
RETIME_BELOW = 1.0  # seconds; sweep systems faster than this are timed twice

CERTIFIED_KINDS = ("exact r*", "exact l*", "upper bound r-hat", "upper bound l-hat")


def _run_op(outcomes, tracer, label, fn):
    """Run one operation, append (seconds, ok) and return its result."""
    if tracer is not None:
        tracer.op = label
    start = time.perf_counter()
    try:
        result = fn()
        ok = True
    except Exception:  # one failed operation is counted, the run goes on
        traceback.print_exc()
        result, ok = None, False
    outcomes.append((time.perf_counter() - start, ok))
    return result


def _random_points(rng, n, count, span):
    return [tuple(Fraction(rng.randint(-span, span)) for _ in range(n)) for _ in range(count)]


def _sympy_points(points):
    import sympy as sp
    return [tuple(sp.Rational(v.numerator, v.denominator) if isinstance(v, Fraction)
                  else sp.Rational(v) for v in p) for p in points]


class CartPole:
    name = "cartpole"
    min_rounds = 1
    # test_criterion_10's probes of the rank-4 locus; the first one is the
    # pull-back witness (zero velocities and angle, z6 = cos 0, z7 = 1/2)
    PROBES = ((0, 0, 0, 0, 0, 1, Fraction(1, 2)), (1, -2, 3, 0, 0, 4, 5),
              (1, 1, 1, 2, 3, 4, 0), (0, 1, 0, 5, 0, 0, 7))

    def __init__(self, seed, sweep_seed):
        self.seed = seed
        self.rounds = []

    def setup(self, pa):
        self.pa = pa
        self.parsed = pa.parse_file((SYSTEMS / "pendulum.sys").read_text(), "pendulum")

    def _pass(self):
        pa, parsed = self.pa, self.parsed
        imm = parsed.immersed
        verified = pa.verify_immersion(parsed.analytic, imm)
        report = pa.rank_l_analysis(imm.system, parsed.options["rank-threshold"],
                                    seed=self.seed)
        pull = pa.pull_back_singular(imm, report.singular_ideal, seed=self.seed)
        return verified, report, pull

    def run_round(self, tracer):
        outcomes = []
        result = _run_op(outcomes, tracer, "rank-4 pass", self._pass)
        self.rounds.append(self._summary(result))
        return outcomes, outcomes[0][0]

    def _summary(self, result):
        if result is None:
            return None
        verified, report, pull = result
        return {
            "verified": verified.ok,
            "index_kind": report.index_kind,
            "index_value": report.index_value,
            "threshold": report.threshold,
            "minors": sorted(str(g) for g in report.singular_ideal.gens),
            "intersection": [str(g) for g in pull.ideal.groebner_basis()],
            "empty": pull.empty,
            "witness": None if pull.witness is None else [str(c) for c in pull.witness],
        }

    def certified(self):
        first = self.rounds[0]
        if first is None:
            return 0
        return int(first["index_kind"] in CERTIFIED_KINDS) + int(first["witness"] is not None)

    def check(self):
        import sympy as sp
        import oracle

        problems = []
        first = next((r for r in self.rounds if r is not None), None)
        if first is None:
            return problems
        if any(r is not None and r != first for r in self.rounds):
            problems.append("cartpole: rounds gave different answers")
        system = self.parsed.system
        space = oracle.Space(system.vars.names)
        drift = space.field([str(c) for c in system.drift.components])
        inputs = [space.field([str(c) for c in g.components]) for g in system.inputs]
        family = oracle.bracket_family(space, [drift] + inputs, [drift] + inputs,
                                       first["index_value"])
        l = first["threshold"]
        # the lift's defining identities: sin^2 + cos^2 = 1, z7 (2 - sin^2) = 1
        relations = [space.poly("z5^2 + z6^2 - 1"), space.poly("z7*(2 - z5^2) - 1")]
        inter = [space.poly(t) for t in first["intersection"]]
        if not first["verified"]:
            problems.append("cartpole: immersion not verified")
        if first["index_kind"] != "upper bound r-hat":
            problems.append(f"cartpole: index kind {first['index_kind']}")
        if first["empty"] or first["witness"] is None:
            problems.append("cartpole: no witness of a non-empty pull-back")
        else:
            w = tuple(sp.Rational(v) for v in first["witness"])
            if not oracle.vanishes_at(relations + inter, w):
                problems.append("cartpole: witness off the image variety or the intersection")
            if oracle.rank_at(family, w) >= l:
                problems.append(f"cartpole: bracket rank at the witness is not below {l}")
        for name in ("z4", "z5"):
            if not oracle.in_radical(space, space.poly(name), inter):
                problems.append(f"cartpole: {name} not in the radical of the intersection")
        basis = sp.groebner([g.as_expr() for g in inter], *space.symbols,
                            order="grevlex", domain=sp.QQ)
        if not all(basis.contains(rel.as_expr()) for rel in relations):
            problems.append("cartpole: intersection misses a relation generator")
        rng = random.Random(self.seed)
        image = [self._image_point(rng) for _ in range(4)]
        if oracle.rank_at(family, image[0]) != l:
            problems.append(f"cartpole: rank at a random image point is not {l}")
        minors = [space.poly(t) for t in first["minors"]]
        points = _sympy_points(list(self.PROBES) + _random_points(rng, 7, 4, 9)) + image
        bad = oracle.rank_mismatches(family, l, minors, points)
        if bad:
            problems.append(f"cartpole: rank and minors disagree at {bad}")
        return problems

    @staticmethod
    def _image_point(rng):
        """A generic point of the image: nonzero rationals throughout, the
        angle through the rational parametrization of the circle."""
        import sympy as sp

        def q():
            return sp.Rational(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))

        t = q()
        s, c = 2 * t / (1 + t * t), (1 - t * t) / (1 + t * t)
        return (q(), q(), q(), q(), s, c, 1 / (2 - s * s))


def _terms_text(terms, names):
    parts = []
    for c, mono in terms:
        factors = [f"{v}^{e}" if e > 1 else v for v, e in zip(names, mono) if e]
        parts.append("*".join([f"({c})"] + factors))
    return " + ".join(parts) or "0"


def random_system(seed):
    """A random 2-3-state system as polynomial term lists; the same draws,
    in the same order, as ``random_system`` in tests/test_acceptance.py."""
    rng = random.Random(seed)

    def poly(n, max_deg, terms):
        out = []
        for _ in range(terms):
            mono = [0] * n
            for _ in range(rng.randint(0, max_deg)):
                mono[rng.randrange(n)] += 1
            out.append((rng.randint(-3, 3), tuple(mono)))
        return out

    n = rng.choice((2, 2, 3))
    m = rng.choice((1, 2))
    if rng.random() < 0.5:
        drift = [[] for _ in range(n)]
    else:
        drift = [poly(n, 2, 2) for _ in range(n)]
    inputs = [[poly(n, rng.randint(1, 3), 2) for _ in range(n)] for _ in range(m)]
    return n, drift, inputs


def system_file(seed):
    """System file text of ``random_system(seed)``."""
    n, drift, inputs = random_system(seed)
    names = [f"x{i + 1}" for i in range(n)]
    lines = ["vars " + " ".join(names),
             "drift: " + ", ".join(_terms_text(t, names) for t in drift)]
    for j, g in enumerate(inputs):
        lines.append(f"input g{j + 1}: " + ", ".join(_terms_text(t, names) for t in g))
    return "\n".join(lines) + "\n"


class Sweep:
    name = "sweep"
    min_rounds = 1

    def __init__(self, seed, sweep_seed):
        self.seed = seed
        first = sweep_seed * SWEEP_SIZE
        self.seeds = list(range(first, first + SWEEP_SIZE))
        self.files = [system_file(s) for s in self.seeds]
        self.order = list(range(SWEEP_SIZE))
        random.Random(seed).shuffle(self.order)
        self.rounds = []

    def setup(self, pa):
        self.pa = pa
        self.systems = [pa.parse_file(text, f"rnd{s}").system
                        for s, text in zip(self.seeds, self.files)]

    def _analyse(self, system):
        report = self.pa.exact_index_analysis(system, auto_route=False, seed=self.seed)
        r_hat = None
        if report.index_kind == "exact r*":
            r_hat = self.pa.stabilize_chain(system).r_hat
        return report, r_hat

    def run_round(self, tracer):
        outcomes = []
        answers = {}
        start = time.perf_counter()
        for i in self.order:
            system = self.systems[i]
            result = _run_op(outcomes, tracer, system.name, lambda: self._analyse(system))
            if result is not None:
                report, r_hat = result
                answers[i] = (report.index_kind, report.verdict, report.index_value,
                              tuple(str(g) for g in report.singular_generators()), r_hat)
        wall = time.perf_counter() - start
        self.rounds.append(answers)
        if tracer is None:
            outcomes = self._retime(outcomes)
        return outcomes, wall

    def _retime(self, outcomes):
        """Time every sub-second system once more, on a fresh parse, and
        keep the mean of its two times.  On a shared machine a single timing
        of a 0.5 s system swings by 25%, which would decide the 97.5th
        percentile.  Systems of a second or more are timed once: repeating
        the two slowest alone would add half a minute."""
        times = {i: [t] for i, (t, ok) in zip(self.order, outcomes) if ok and t < RETIME_BELOW}
        for i in self.order:
            if i in times:
                system = self.pa.parse_file(self.files[i], f"rnd{self.seeds[i]}").system
                start = time.perf_counter()
                self._analyse(system)
                times[i].append(time.perf_counter() - start)
        return [(statistics.fmean(times[i]), ok) if i in times else (t, ok)
                for i, (t, ok) in zip(self.order, outcomes)]

    def certified(self):
        return sum(int(a[0] in CERTIFIED_KINDS) + int(a[4] is not None)
                   for a in self.rounds[0].values())

    def check(self):
        import oracle

        problems = []
        answers = self.rounds[0]
        if any(r != answers for r in self.rounds[1:]):
            problems.append("sweep: rounds gave different answers")
        rng = random.Random(self.seed)
        for i, (kind, verdict, value, gens, r_hat) in sorted(answers.items()):
            seed = self.seeds[i]
            n, drift, inputs = random_system(seed)
            space = oracle.Space([f"x{k + 1}" for k in range(n)])
            f = [space.from_terms(t) for t in drift]
            gs = [[space.from_terms(t) for t in g] for g in inputs]
            ops = ([] if oracle.is_zero_field(f) else [f]) + gs
            points = _sympy_points(_random_points(rng, n, 4, 20))
            if verdict == "nowhere accessible":
                family = oracle.bracket_family(space, [f] + gs, ops, n - 1)
                if any(oracle.rank_at(family, p) >= n for p in points[:2]):
                    problems.append(f"sweep rnd{seed}: full rank although nowhere accessible")
                continue
            if kind != "exact r*":
                continue  # undecided: no singular set is claimed
            if r_hat is None or r_hat < value:
                problems.append(f"sweep rnd{seed}: r-hat {r_hat} below r* {value}")
            polys = [space.poly(g) for g in gens]
            failures = oracle.invariance_failures(space, polys, ops)
            if failures:
                problems.append(f"sweep rnd{seed}: singular set not invariant {failures}")
            grid = list(itertools.product((-1, 0, 1), repeat=n))
            family = oracle.bracket_family(space, [f] + gs, ops, value)
            bad = oracle.rank_mismatches(family, n, polys, points + _sympy_points(grid))
            if bad:
                problems.append(f"sweep rnd{seed}: rank and S_inf disagree at {bad}")
        return problems


class Demos:
    name = "demos"
    min_rounds = 10  # 40 invocations a round: at least 400 a run
    COMMANDS = ("index", "singular", "bound", "strong", "rank", "full")
    # test_criterion_10's on-variety probes, per system
    PROBES = {
        "planar": [(0, 0)],
        "circle3d": [(Fraction(s), (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))
                     for s, t in ((0, Fraction(0)), (3, Fraction(1, 2)),
                                  (-2, Fraction(1)), (5, Fraction(-3, 2)))],
        "unicycle": [(1, 2, 3, 0, 0), (-2, 5, 0, 0, 0)],
    }

    def __init__(self, seed, sweep_seed):
        self.seed = seed
        self.invocations = []
        for name, dim in (("planar", 2), ("circle3d", 3), ("unicycle", None)):
            for fmt in ("text", "structured"):
                for command in self.COMMANDS + (("immerse",) if dim is None else ()):
                    argv = [command, str(SYSTEMS / f"{name}.sys"), "--format", fmt]
                    if command == "rank" and dim is not None:
                        argv += ["--l", str(dim)]  # no rank-threshold in the file
                    if command == "immerse":
                        argv.append("--check")
                    self.invocations.append((name, argv + ["--seed", str(seed)]))
        for fmt in ("text", "structured"):
            self.invocations.append(("pendulum", ["immerse", str(SYSTEMS / "pendulum.sys"),
                                                  "--check", "--format", fmt,
                                                  "--seed", str(seed)]))
        random.Random(seed).shuffle(self.invocations)
        self.outputs = {}  # invocation index -> stdout of the first round
        self.changed = set()  # invocations whose stdout differed between rounds

    def setup(self, pa):
        self.cli = pa.cli
        # set-up parses the files as a user of the library would; each
        # invocation then reads and parses its file again, as the CLI does
        self.parsed = {name: pa.parse_file((SYSTEMS / f"{name}.sys").read_text(), name)
                       for name in ("planar", "circle3d", "unicycle", "pendulum")}

    def _invoke(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"exit {code}: {' '.join(argv)}: {err.getvalue().strip()}")
        return out.getvalue()

    def run_round(self, tracer):
        outcomes = []
        start = time.perf_counter()
        for k, (name, argv) in enumerate(self.invocations):
            text = _run_op(outcomes, tracer, " ".join(argv[:1] + [name] + argv[2:]),
                           lambda: self._invoke(argv))
            if text is None:
                continue
            if self.outputs.setdefault(k, text) != text:
                self.changed.add(k)
        return outcomes, time.perf_counter() - start

    def _docs(self):
        """(system, command, structured document) of every structured output."""
        for k, (name, argv) in enumerate(self.invocations):
            if "structured" in argv and k in self.outputs:
                yield name, argv[0], json.loads(self.outputs[k])

    @staticmethod
    def _reports(doc):
        """The analysis reports in a document, with their section names."""
        if "route" in doc:
            yield doc["command"], doc
        for section in ("index", "bound", "strong", "rank"):
            if section in doc:
                yield section, doc[section]

    def certified(self):
        count = 0
        for _, _, doc in self._docs():
            for _, report in self._reports(doc):
                count += report["index_kind"] in CERTIFIED_KINDS
                pull = report.get("pull_back")
                if pull is not None:
                    count += pull["empty"] and pull["grade"] == "algebraic proof"
                    count += "witness" in pull
        return count

    def _fields(self, name, docs):
        """Sympy drift and inputs: read from the file for polynomial systems,
        from the verified lift for immersed ones."""
        import oracle

        lifted = next((d["immersion"] for _, c, d in docs if c == "immerse"), None)
        if lifted is not None:
            space = oracle.Space(lifted["targets"])
            drift = space.field(lifted["lifted_drift"])
            inputs = [space.field(v) for v in lifted["lifted_inputs"].values()]
            return space, drift, inputs, lifted["verified"]
        text = (SYSTEMS / f"{name}.sys").read_text()
        lines = [ln.split("#")[0].strip() for ln in text.splitlines()]
        names = next(ln.split()[1:] for ln in lines if ln.startswith("vars "))
        space = oracle.Space(names)
        drift = [space.poly("0")] * len(names)
        inputs = []
        for ln in lines:
            head, _, body = ln.partition(":")
            if head == "drift":
                drift = space.field(body.split(","))
            elif head.startswith("input "):
                inputs.append(space.field(body.split(",")))
        return space, drift, inputs, True

    def check(self):
        import oracle

        problems = [f"demos: output changed between rounds: {' '.join(self.invocations[k][1])}"
                    for k in sorted(self.changed)]
        texts = {(name, argv[0]): self.outputs.get(k, "")
                 for k, (name, argv) in enumerate(self.invocations) if "text" in argv}
        docs = list(self._docs())
        rng = random.Random(self.seed)
        for name in ("planar", "circle3d", "unicycle", "pendulum"):
            mine = [d for d in docs if d[0] == name]
            space, drift, inputs, verified = self._fields(name, mine)
            if not verified:
                problems.append(f"demos {name}: immersion not verified")
            if name == "pendulum":
                continue
            n = len(space.names)
            ops = ([] if oracle.is_zero_field(drift) else [drift]) + inputs
            points = _sympy_points(self.PROBES[name] + _random_points(rng, n, 4, 20))
            r_hat = next(d["index_value"] for _, c, d in mine if c == "bound")
            families = {}
            for _, command, doc in mine:
                for gen in _generator_strings(doc):
                    if gen not in texts[(name, command)]:
                        problems.append(f"demos {name} {command}: {gen} missing from text output")
                for section, report in self._reports(doc):
                    where = f"demos {name} {command}/{section}"
                    gens = [space.poly(g) for g in report["singular_generators"]]
                    if report["index_kind"] != "undecided":
                        depth = report["index_value"]
                    elif report["route"] == "invariant-closure":
                        depth = r_hat  # the module chain's depth certifies the limit
                    else:
                        depth = n - 1  # generic test: nowhere accessible
                    mode = report["mode"]
                    if (mode, depth) not in families:
                        gens0 = ([drift] if mode == "accessibility" else []) + inputs
                        families[mode, depth] = oracle.bracket_family(space, gens0, ops, depth)
                    threshold = report.get("threshold", n)
                    bad = oracle.rank_mismatches(families[mode, depth], threshold, gens, points)
                    if bad:
                        problems.append(f"{where}: rank and generators disagree at {bad}")
                    if section in ("index", "singular", "strong") and gens:
                        failures = oracle.invariance_failures(space, gens, ops)
                        if failures:
                            problems.append(f"{where}: singular set not invariant {failures}")
                    pull = report.get("pull_back")
                    if name == "unicycle" and pull is not None:
                        relation = space.poly("z4^2 + z5^2 - 1")
                        if not (pull["empty"] and oracle.is_unit_ideal(space, gens + [relation])):
                            problems.append(f"{where}: pull-back not proved empty")
        return problems


def _generator_strings(doc):
    if isinstance(doc, dict):
        for key, value in doc.items():
            if key in ("singular_generators", "intersection_generators"):
                yield from value
            else:
                yield from _generator_strings(value)


WORKLOADS = {w.name: w for w in (CartPole, Sweep, Demos)}
