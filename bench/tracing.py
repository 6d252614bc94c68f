"""Per-layer tracing done from outside the package.

The tracer replaces public functions of the ``polyaccess`` modules with
wrappers, in every module namespace that binds the same function object, so
calls made inside the package are caught as well as the benchmark's own.
Spans (name, start, end, parent, operation, size) are kept in memory and
written out when the run ends; per-layer metrics are derived from them.
"""

import functools
import sys
import time

# Functions that open a span; their time is split into self time (span minus
# the spans of traced children).  The optional hook gives a size per call.
SPANNED = {
    "systemfile.parse_file": None,
    "cli.main": None,
    "analysis.generic_test": None,
    "analysis.exact_index_analysis": None,
    "analysis.closure_singular_analysis": None,
    "analysis.bound_analysis": None,
    "analysis.rank_l_analysis": None,
    "analysis.strong_analysis": None,
    "vectorfields.extend_family": None,
    "modules.stabilize_chain": None,
    "modules.module_buchberger": lambda args, result: len(result),
    "minors.minor_ideal": lambda args, result: len(result.gens),
    "minors.reduce_columns": None,
    "minors.generic_rank": None,
    "ideals.buchberger": lambda args, result: (len(args[0]), len(result)),
    "ideals.in_radical": None,
    "ideals.real_radical_restricted": None,
    "ideals.ideal_intersect": None,
    "ideals.invariant_closure": lambda args, result: len(result.rounds),
    "immersion.verify_immersion": None,
    "immersion.pull_back_singular": None,
    "poly.squarefree_part": None,
    "poly.poly_gcd": None,
}

# Functions only counted: they are small and called very often, so their time
# stays in the caller's self time instead of costing a span each.
COUNTED = ("vectorfields.lie_bracket", "minors.determinant")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, op, size]
        self.counts = dict.fromkeys(COUNTED, 0)
        self.op = None
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def install(self, package="polyaccess"):
        """Wrap every traced function wherever a polyaccess module binds it.
        A function the package no longer has is skipped, so its metrics
        read 0."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        for qualname in list(SPANNED) + list(COUNTED):
            home, func = qualname.split(".")
            original = getattr(sys.modules.get(f"{package}.{home}"), func, None)
            if original is None:
                continue
            wrapper = (self._spanned(qualname, original, SPANNED[qualname])
                       if qualname in SPANNED else self._counted(qualname, original))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _spanned(self, name, fn, size_of):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), None, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if size_of is not None:
                span[5] = size_of(args, result)
            return result

        return traced

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def self_times(self):
        """Self time of every span: its duration minus its children's."""
        spans = self.spans
        own = [s[2] - s[1] for s in spans]
        for s in spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def take(self):
        """Metrics of everything traced since the last call, then forget it
        (the spans are returned for writing out)."""
        spans = list(self.spans)
        metrics = layer_metrics(spans, self.self_times(), self.counts)
        self.spans.clear()
        for name in self.counts:
            self.counts[name] = 0
        return metrics, spans


def combine(setup, rounds, n_rounds):
    """Per-layer values for one set-up plus one round: round totals are
    divided by the number of rounds, maxima are kept as maxima."""
    return {k: max(setup[k], rounds[k]) if k.endswith("_max")
            else setup[k] + rounds[k] / n_rounds for k in setup}


def layer_metrics(spans, self_times, counts):
    """Per-layer metrics from the spans and counters of one traced stretch."""
    total = {}
    calls = {}
    sizes = {}
    for span, own in zip(spans, self_times):
        name = span[0]
        total[name] = total.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        if span[5] is not None:
            sizes.setdefault(name, []).append(span[5])

    def t(*names):
        return sum(total.get(n, 0.0) for n in names)

    def c(name):
        return calls.get(name, 0)

    bb = sizes.get("ideals.buchberger", [])
    analysis = [n for n in SPANNED if n.startswith("analysis.")]
    return {
        "systemfile.parse_s": t("systemfile.parse_file"),
        "cli.self_s": t("cli.main"),
        "analysis.self_s": t(*analysis),
        "analysis.generic_test_calls": c("analysis.generic_test"),
        "analysis.exact_index_calls": c("analysis.exact_index_analysis"),
        "vectorfields.lie_bracket_calls": counts["vectorfields.lie_bracket"],
        "vectorfields.extend_family_s": t("vectorfields.extend_family"),
        "modules.stabilize_chain_s": t("modules.stabilize_chain"),
        "modules.stabilize_chain_calls": c("modules.stabilize_chain"),
        "modules.module_buchberger_s": t("modules.module_buchberger"),
        "modules.module_buchberger_calls": c("modules.module_buchberger"),
        "modules.basis_max": max(sizes.get("modules.module_buchberger", [0])),
        "minors.minor_ideal_s": t("minors.minor_ideal"),
        "minors.minor_generators": sum(sizes.get("minors.minor_ideal", [])),
        "minors.determinant_calls": counts["minors.determinant"],
        "minors.reduce_columns_s": t("minors.reduce_columns"),
        "minors.generic_rank_s": t("minors.generic_rank"),
        "minors.generic_rank_calls": c("minors.generic_rank"),
        "ideals.buchberger_s": t("ideals.buchberger"),
        "ideals.buchberger_calls": c("ideals.buchberger"),
        "ideals.buchberger_inputs": sum(s[0] for s in bb),
        "ideals.basis_max": max([s[1] for s in bb] or [0]),
        "ideals.in_radical_s": t("ideals.in_radical"),
        "ideals.in_radical_calls": c("ideals.in_radical"),
        "ideals.real_radical_s": t("ideals.real_radical_restricted"),
        "ideals.intersect_s": t("ideals.ideal_intersect"),
        "ideals.closure_s": t("ideals.invariant_closure"),
        "ideals.closure_rounds": sum(sizes.get("ideals.invariant_closure", [])),
        "immersion.verify_s": t("immersion.verify_immersion"),
        "immersion.pull_back_s": t("immersion.pull_back_singular"),
        "poly.squarefree_part_s": t("poly.squarefree_part"),
        "poly.gcd_s": t("poly.poly_gcd"),
        "poly.gcd_calls": c("poly.poly_gcd"),
    }
