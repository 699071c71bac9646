"""Per-layer spans timed from outside veq.

A Tracer wraps veq's public layer functions in their defining module and in
every veq module that bound them with ``from ... import``, plus each entry of
``cli.HANDLERS``. Spans (name, start, end, parent, tag) stay in memory until
the workload ends; self time is a span's duration minus what its child spans
cover. Counters read arguments and return values, never veq internals.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

# module -> wrapped functions; the layers are named after veq's modules
TARGETS = {
    "algebras": (
        "term_function", "subalgebra_closure", "sub_algebra", "subalgebras",
        "congruence_closure", "congruences", "quotient_algebra",
        "product_algebra", "find_alg_isomorphism",
    ),
    "birkhoff": (
        "hsp_member", "identities_of", "free_algebra_in_variety",
        "centralizer", "abelianization",
    ),
    "theories": ("congruent", "unify", "quotient_theory", "kernel_pair_membership"),
    "series": ("is_linear_recurrence", "wronskian"),
    "equations": ("general_solution", "general_cosolution", "implies"),
    "inserters": ("inserter", "shift_left", "shift_right"),
    "dsl": ("parse_files",),
}

CLI_VERBS = (
    "solve", "cosolve", "check-solution", "implies", "reduce", "genvar",
    "geneq", "unify", "decide", "quotient", "cosolve-theories", "kernel",
    "hsp", "identities", "freealg", "centralizer", "abelianize", "inserter",
    "verify-forgetful", "shift", "recurrence", "wronskian", "check",
)

WRONSKIAN_SIZES = range(2, 8)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def per_layer_names() -> list[str]:
    """Every per-layer metric name, in BENCHMARK.json order."""
    names = []
    for module, fns in TARGETS.items():
        for fn in fns:
            names += [f"{module}.{fn}.calls", f"{module}.{fn}.self_s"]
    names += [f"cli.{verb}.wall_s" for verb in CLI_VERBS]
    names += [
        "algebras.term_function.assignments",
        "algebras.congruences.found",
        "algebras.find_alg_isomorphism.hit_frac",
        "birkhoff.hsp_member.member_frac",
        "birkhoff.identities_of.kept",
        "theories.congruent.expansions",
        "theories.congruent.expansions_per_s",
        "theories.congruent.provable_frac",
    ]
    names += [f"series.wronskian.size_{n}.self_s" for n in WRONSKIAN_SIZES]
    names += [f"{module}.raised" for module in TARGETS]
    names.append("trace.overhead_frac")
    return names


class Tracer:
    """Install with ``install()``, run the queries, then ``uninstall()``."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._off = [False]
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        veq_modules = [m for n, m in sorted(sys.modules.items())
                       if n == "veq" or n.startswith("veq.")]
        for module, fns in TARGETS.items():
            mod = importlib.import_module(f"veq.{module}")
            for fn in fns:
                original = getattr(mod, fn)
                wrapper = self._wrap(f"{module}.{fn}", module, original)
                for m in veq_modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._restore.append((m, attr, value))
                            setattr(m, attr, wrapper)
        cli = importlib.import_module("veq.cli")
        for verb, handler in list(cli.HANDLERS.items()):
            self._restore.append((cli.HANDLERS, verb, handler))
            cli.HANDLERS[verb] = self._wrap(f"cli.{verb}", "cli", handler)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._restore.clear()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside leave no spans and no counts (the benchmark's
        own checks call some of the wrapped functions)."""
        self._off[0] = True
        try:
            yield
        finally:
            self._off[0] = False

    def _wrap(self, name: str, module: str, fn):
        spans, stack, counts, off = self.spans, self.stack, self.counts, self._off
        hook = _HOOKS.get(name)
        sized = name == "series.wronskian"

        def wrapper(*args, **kwargs):
            if off[0]:
                return fn(*args, **kwargs)
            tag = None
            if sized:
                entries = list(_arg(args, kwargs, 0, "entries"))
                args, kwargs, tag = (entries,), {}, len(entries)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[f"{module}.raised"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, tag)
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- reduction --------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def metrics(self, speed: float = 1.0) -> dict[str, float]:
        """Per-layer metrics, trace.overhead_frac excepted (it needs the
        untraced run). Times are divided by `speed`, the run's calibration
        factor, as the end-to-end times are."""
        own = [s / speed for s in self.self_times()]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        wall: dict[str, float] = defaultdict(float)
        sized: dict[int, float] = defaultdict(float)
        for (name, start, end, _, tag), s in zip(self.spans, own):
            calls[name] += 1
            self_s[name] += s
            wall[name] += (end - start) / speed
            if tag is not None:
                sized[tag] += s
        out: dict[str, float] = {}
        for module, fns in TARGETS.items():
            for fn in fns:
                key = f"{module}.{fn}"
                out[f"{key}.calls"] = calls[key]
                out[f"{key}.self_s"] = self_s[key]
        for verb in CLI_VERBS:
            out[f"cli.{verb}.wall_s"] = wall[f"cli.{verb}"]
        c = self.counts

        def frac(num, den):
            return num / den if den else 0.0

        out["algebras.term_function.assignments"] = c["assignments"]
        out["algebras.congruences.found"] = c["congruences_found"]
        out["algebras.find_alg_isomorphism.hit_frac"] = frac(
            c["iso_hits"], calls["algebras.find_alg_isomorphism"])
        out["birkhoff.hsp_member.member_frac"] = frac(
            c["members"], calls["birkhoff.hsp_member"])
        out["birkhoff.identities_of.kept"] = c["kept"]
        out["theories.congruent.expansions"] = c["expansions"]
        out["theories.congruent.expansions_per_s"] = frac(
            c["expansions"], self_s["theories.congruent"])
        out["theories.congruent.provable_frac"] = frac(
            c["provable"], calls["theories.congruent"])
        for n in WRONSKIAN_SIZES:
            out[f"series.wronskian.size_{n}.self_s"] = sized[n]
        for module in TARGETS:
            out[f"{module}.raised"] = c[f"{module}.raised"]
        return out

    def layer_self_s(self, speed: float = 1.0) -> dict[str, float]:
        """Self time summed by layer (the module part of each span name)."""
        out: dict[str, float] = defaultdict(float)
        for (name, *_), s in zip(self.spans, self.self_times()):
            out[name.split(".", 1)[0]] += s / speed
        return dict(out)

    def dump(self, path) -> None:
        """Write every span as [name, start, end, parent, tag], gzipped."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump([list(s) for s in self.spans], fh, separators=(",", ":"))


def _term_function(counts, args, kwargs, result):
    A = _arg(args, kwargs, 0, "A")
    counts["assignments"] += len(A.carrier) ** _arg(args, kwargs, 2, "n")


def _congruences(counts, args, kwargs, result):
    counts["congruences_found"] += len(result)


def _find_iso(counts, args, kwargs, result):
    counts["iso_hits"] += result is not None


def _hsp_member(counts, args, kwargs, result):
    counts["members"] += result.yes


def _identities_of(counts, args, kwargs, result):
    counts["kept"] += len(result)


def _congruent(counts, args, kwargs, result):
    counts["expansions"] += result.expansions
    counts["provable"] += result.provable


_HOOKS = {
    "algebras.term_function": _term_function,
    "algebras.congruences": _congruences,
    "algebras.find_alg_isomorphism": _find_iso,
    "birkhoff.hsp_member": _hsp_member,
    "birkhoff.identities_of": _identities_of,
    "theories.congruent": _congruent,
}
