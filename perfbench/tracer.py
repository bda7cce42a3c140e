"""Outside-in tracer for logmono.

logmono carries no instrumentation, so the tracer wraps public functions
from outside.  logmono binds names with ``from .x import f``; a function is
therefore patched in its defining module and in every logmono module that
holds the same object, and a method is patched on its class under every
attribute name bound to it (``__rmul__ = __mul__``).  ``restore`` puts every
original object back, so a run after tracing executes exactly the untraced
code.

A span is (id, name, start, end, parent id, problem id), timed with
``time.perf_counter``.  Self time is a span's duration minus the durations
of its direct children; spans nest strictly because logmono is
single-threaded.  Aggregates are exact; the stored span list is capped so
that memory stays bounded.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from dataclasses import dataclass
from time import perf_counter

MAX_SPANS = 100_000


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0


# (module, qualified name, kind): "span" records a span; "count" only counts
# calls, for constructors too hot to time without distorting their callers.
TARGETS = (
    ("cli", "main", "span"),
    ("cli", "build_parser", "span"),
    ("frontend", "parse_problem", "span"),
    ("frontend", "Report.render_text", "span"),
    ("poly", "Polynomial.__init__", "count"),
    ("poly", "Polynomial.__mul__", "span"),
    ("poly", "Polynomial.substitute", "span"),
    ("poly", "exact_divide", "span"),
    ("ideal", "reduced_groebner_basis", "span"),
    ("ideal", "normal_form", "span"),
    ("ideal", "radical_membership", "span"),
    ("ideal", "elimination", "span"),
    ("ideal", "IdealPresentation.basis", "span"),
    ("chart", "validate_pair_condition", "span"),
    ("chart", "preimage_equality_check", "span"),
    ("logdiff", "pullback_basis_form", "span"),
    ("logdiff", "log_jacobian", "span"),
    ("fitting", "log_fitting_ideal", "span"),
    ("rank", "symbolic_matrix_rank", "span"),
    ("rank", "image_closure_dimension", "span"),
    ("classify", "is_quasi_prepared", "span"),
    ("classify", "singular_locus_ideal", "span"),
    ("classify", "is_strongly_prepared_at", "span"),
    ("classify", "match_spm_template", "span"),
    ("classify", "is_monomial_morphism_at", "span"),
    ("blowup", "BlowupTree.expand", "span"),
    ("blowup", "blowup_chart", "span"),
    ("principalize", "goward_principalize", "span"),
    ("principalize", "choose_center", "span"),
    ("principalize", "termination_measure", "span"),
)

# Per-layer metrics the tracer cannot take from outside, with the reason.
UNMEASURED = {
    "ideal.reduced_groebner_basis.pairs_skipped": "pairs dropped by the coprime and chain "
    "criteria are decided inside one loop of reduced_groebner_basis; no function "
    "boundary to wrap",
    "poly.Polynomial.__init__.self_s": "counted, not timed: a span per constructor "
    "would cost more than the constructor and distort every caller's self time",
    "*.wait_s": "logmono never waits: one thread, no locks, no I/O after the problem "
    "file is read",
}


class Tracer:
    def __init__(self):
        self.stats = {f"{m}.{q}": Stat() for m, q, _ in TARGETS}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.problem = None
        self._stack: list[list] = []  # [span id, name, child seconds, saw child GB]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        # extras for the ratio metrics
        self.basis_len_max = 0
        self.normal_form_zero = 0
        self.basis_hits = 0
        self.distinct: dict[str, set] = {"chart.validate_pair_condition": set(),
                                         "classify.is_quasi_prepared": set()}
        self.tree_steps = 0
        self.tree_depth_max = 0

    # -- patching -----------------------------------------------------

    def install(self) -> None:
        """Patch every target in the logmono modules already imported."""
        mods = [m for n, m in sorted(sys.modules.items()) if n == "logmono" or n.startswith("logmono.")]
        for module, qualname, kind in TARGETS:
            name = f"{module}.{qualname}"
            home = importlib.import_module(f"logmono.{module}")
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(home, cls_name)
                orig = owner.__dict__[attr]
                wrapper = self._wrap(name, orig, kind)
                for a, v in list(vars(owner).items()):
                    if v is orig:
                        self._patch(owner, a, wrapper)
            else:
                orig = getattr(home, qualname)
                wrapper = self._wrap(name, orig, kind)
                for m in mods:
                    for a, v in list(vars(m).items()):
                        if v is orig:
                            self._patch(m, a, wrapper)

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- wrappers -----------------------------------------------------

    def _wrap(self, name, fn, kind):
        stat = self.stats[name]
        if kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                stat.calls += 1
                return fn(*args, **kwargs)

            return counted

        stack = self._stack
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else None
            frame = [sid, name, 0.0, False]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                stat.calls += 1
                stat.self_s += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((sid, name, t0, t1, parent[0] if parent else None, self.problem))
                else:
                    self.dropped += 1
            if after is not None:
                # Bookkeeping for ratios runs outside every span: its time is
                # added to the parent's child time so nobody's self time has it.
                h0 = perf_counter()
                after(self, args, result, frame, parent)
                if parent is not None:
                    parent[2] += perf_counter() - h0
            return result

        return spanned

    # -- results ------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit).  A ratio whose base
        is zero reads 0."""
        out: dict[str, tuple[float, str]] = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = (st.calls, "count")
            if name != "poly.Polynomial.__init__":
                out[f"{name}.self_s"] = (st.self_s, "s")

        def ratio(a, b):
            return a / b if b else 0.0

        calls = lambda n: self.stats[n].calls  # noqa: E731
        out["ideal.reduced_groebner_basis.basis_len_max"] = (self.basis_len_max, "count")
        out["ideal.normal_form.zero_ratio"] = (ratio(self.normal_form_zero, calls("ideal.normal_form")), "ratio")
        out["ideal.IdealPresentation.basis.cache_hit_ratio"] = (
            ratio(self.basis_hits, calls("ideal.IdealPresentation.basis")), "ratio")
        for n, keys in self.distinct.items():
            out[f"{n}.repeat_ratio"] = (ratio(calls(n), len(keys)), "ratio")
        out["principalize.tree_steps"] = (self.tree_steps, "count")
        out["principalize.tree_depth_max"] = (self.tree_depth_max, "count")
        total = sum(st.self_s for st in self.stats.values())
        for module in dict.fromkeys(m for m, _, _ in TARGETS):
            own = sum(st.self_s for n, st in self.stats.items() if n.startswith(module + "."))
            out[f"{module}.self_share"] = (ratio(own, total), "ratio")
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, problem in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "problem": problem}) + "\n")


# Bookkeeping for the ratio metrics, run after a span closes.  ``frame`` is
# the span's [id, name, child seconds, saw a child Groebner basis].


def _after_groebner(tracer, args, result, frame, parent):
    tracer.basis_len_max = max(tracer.basis_len_max, len(result))
    if parent is not None and parent[1] == "ideal.IdealPresentation.basis":
        parent[3] = True


def _after_basis(tracer, args, result, frame, parent):
    if not frame[3]:
        tracer.basis_hits += 1


def _after_normal_form(tracer, args, result, frame, parent):
    if result.is_zero():
        tracer.normal_form_zero += 1


def _after_morphism(tracer, args, result, frame, parent):
    phi = args[0]
    tracer.distinct[frame[1]].add((phi.source, phi.target, repr(phi)))


def _after_principalize(tracer, args, result, frame, parent):
    tracer.tree_steps += result.step_count()
    tracer.tree_depth_max = max(tracer.tree_depth_max, result.depth())


_AFTER = {
    "ideal.reduced_groebner_basis": _after_groebner,
    "ideal.IdealPresentation.basis": _after_basis,
    "ideal.normal_form": _after_normal_form,
    "chart.validate_pair_condition": _after_morphism,
    "classify.is_quasi_prepared": _after_morphism,
    "principalize.goward_principalize": _after_principalize,
}
