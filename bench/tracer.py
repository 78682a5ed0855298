"""Per-layer tracing from outside the package.

The package binds many names at import (``cli`` and ``vector`` do
``from .dyadic import in_site_set, site_members, ...``), so wrapping only
``dyadic.in_site_set`` would count nothing that ``vector`` calls.  Every
wrapper is therefore installed at *every* place the original object is
bound: each module attribute of the package that holds it, or the class
attribute for methods.  Installing a wrapper that finds no binding is an
error, as is a counter that stays zero on a workload named to move it
(``self_check``).

Two kinds of wrapper:

* a *span* (layer boundaries) records calls, inclusive time and self time
  (inclusive time minus the time of spans opened inside it);
* a *count* (hot leaves: ``in_site_set`` and the ``GaussianRational``
  operators) records calls only, so tracing them stays cheap.

Spans are aggregated per name in memory while the workload runs and are
printed once it ends.
"""

from __future__ import annotations

import contextlib
import inspect
import time
from collections import Counter, defaultdict


class TraceError(RuntimeError):
    """A wrapper found no binding, or a layer it should see was never reached."""


class Tracer:
    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self._stack: list[float] = []  # child time of each open span
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def span(self, name: str, fn, after=None):
        counts, total, self_time, stack = self.counts, self.total, self.self_time, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                total[name] += elapsed
                self_time[name] += elapsed - child
                counts[name + ".calls"] += 1
            if after is not None:
                after(result)
            return result

        return wrapper

    def count(self, name: str, fn, accept: bool = False):
        counts = self.counts
        calls, true = name + ".calls", name + ".true"
        if accept:
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts[calls] += 1
                if result:
                    counts[true] += 1
                return result
        else:
            def wrapper(*args, **kwargs):
                counts[calls] += 1
                return fn(*args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------

    def patch(self, modules, original, wrapper) -> None:
        """Rebind ``original`` to ``wrapper`` in every module that binds it."""
        found = 0
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)
                    found += 1
        if not found:
            raise TraceError(f"{original!r} is bound nowhere in the package")

    def patch_method(self, cls, attr: str, wrapper) -> None:
        self._undo.append((cls, attr, vars(cls)[attr]))
        setattr(cls, attr, wrapper)

    def install(self, pkg) -> None:
        modules = pkg.modules
        cli, vector, dyadic, densities, shift, scalars = (
            pkg.cli, pkg.vector, pkg.dyadic, pkg.densities, pkg.shift, pkg.scalars)

        def span(name, fn, after=None):
            self.patch(modules, fn, self.span(name, fn, after))

        for stage in ("fact0", "sets", "verify", "vector", "orbit"):
            span(f"cli.{stage}", getattr(cli, f"cmd_{stage}"))

        self.patch(modules, dyadic.in_site_set,
                   self.count("dyadic.in_site_set", dyadic.in_site_set, accept=True))
        span("vector.expansion_coefficient", vector.expansion_coefficient)
        self._install_return_set(modules, vector.return_set)
        span("dyadic.site_members", dyadic.site_members,
             after=lambda members: self.counts.update({"dyadic.site_members.items": len(members)}))
        span("dyadic.verify_separation", dyadic.verify_separation)
        span("dyadic.count_sites", dyadic.count_sites)
        span("vector.checkpoint_count", vector.checkpoint_count)
        span("densities.density_ratios", densities.density_ratios)
        span("vector.sign_cross_check", vector.sign_cross_check)
        span("vector.verify_orbit_approach", vector.verify_orbit_approach)
        span("shift.vector_norm", shift.vector_norm)
        span("vector.family", vector.one_block_family)
        span("vector.family", vector.dense_family_blocks)

        oracle = vector.SeriesOracle
        self.patch_method(oracle, "value", self.span(
            "vector.series_oracle", oracle.value,
            after=lambda value: self.counts.update({"vector.series_oracle.nonzero": value != 0})))

        number = scalars.GaussianRational
        for attr in ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__"):
            self.patch_method(number, attr, self.count("scalars.ops", vars(number)[attr]))

    def _install_return_set(self, modules, original) -> None:
        """Split ``return_set`` by route and count members per candidate evaluated."""
        signature = inspect.signature(original)
        routes = {}
        counts = self.counts

        def return_set(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            method = bound.arguments["method"]
            if method not in routes:
                routes[method] = self.span(f"vector.return_set.{method}", original)
            before = counts["vector.expansion_coefficient.calls"]
            result = routes[method](*args, **kwargs)
            counts["vector.return_set.candidates"] += (
                counts["vector.expansion_coefficient.calls"] - before)
            counts["vector.return_set.members"] += len(result.members)
            return result

        self.patch(modules, original, return_set)

    @contextlib.contextmanager
    def installed(self, pkg):
        """Trace the package's calls inside the ``with`` block; counts accumulate."""
        try:
            self.install(pkg)
            yield self
        finally:
            self.uninstall()

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def reset(self) -> None:
        self.counts.clear()
        self.total.clear()
        self.self_time.clear()

    def snapshot(self) -> dict:
        return {"counts": dict(self.counts), "total": dict(self.total),
                "self": dict(self.self_time)}


# ---------------------------------------------------------------------------
# Per-layer metrics: name -> (unit, source, workloads it should move)
#
# source is ("time", span), ("count", counter) or ("ratio", num, den).  The
# workloads listed are the ones on which the metric is expected to move
# verdict_s (setup_s for vector.family_s); ``self_check`` requires the
# underlying count to be nonzero on each of them.
# ---------------------------------------------------------------------------

HEADLINE, DEEP, CERTIFY = "headline", "deep-walk", "certify"

PER_LAYER = {
    "cli.fact0_s": ("s", ("time", "cli.fact0"), (HEADLINE,)),
    "cli.sets_s": ("s", ("time", "cli.sets"), (HEADLINE,)),
    "cli.verify_s": ("s", ("time", "cli.verify"), (HEADLINE,)),
    "cli.vector_s": ("s", ("time", "cli.vector"), (HEADLINE,)),
    "cli.orbit_s": ("s", ("time", "cli.orbit"), (HEADLINE,)),
    "dyadic.in_site_set.calls": ("count", ("count", "dyadic.in_site_set.calls"),
                                 (HEADLINE, CERTIFY)),
    "dyadic.in_site_set.accept_ratio": ("ratio", ("ratio", "dyadic.in_site_set.true",
                                                  "dyadic.in_site_set.calls"),
                                        (HEADLINE, CERTIFY)),
    "vector.expansion_coefficient.calls": ("count",
                                           ("count", "vector.expansion_coefficient.calls"),
                                           (HEADLINE, CERTIFY)),
    "vector.expansion_coefficient_s": ("s", ("time", "vector.expansion_coefficient"),
                                       (HEADLINE, CERTIFY)),
    "vector.return_set.scan_s": ("s", ("time", "vector.return_set.scan"), (HEADLINE,)),
    "dyadic.site_members_s": ("s", ("time", "dyadic.site_members"), (DEEP,)),
    "dyadic.site_members.items": ("count", ("count", "dyadic.site_members.items"), (DEEP,)),
    "vector.return_set.sites_s": ("s", ("time", "vector.return_set.sites"), (DEEP,)),
    "vector.return_set.hit_ratio": ("ratio", ("ratio", "vector.return_set.members",
                                              "vector.return_set.candidates"),
                                    (HEADLINE, DEEP)),
    "dyadic.verify_separation_s": ("s", ("time", "dyadic.verify_separation"),
                                   (HEADLINE, DEEP)),
    "vector.series_oracle_s": ("s", ("time", "vector.series_oracle"), (HEADLINE, CERTIFY)),
    "vector.series_oracle.nonzero": ("count", ("count", "vector.series_oracle.nonzero"),
                                     (HEADLINE, CERTIFY)),
    "vector.sign_cross_check_s": ("s", ("time", "vector.sign_cross_check"),
                                  (HEADLINE, CERTIFY)),
    "scalars.ops": ("count", ("count", "scalars.ops.calls"), (HEADLINE, CERTIFY)),
    "vector.verify_orbit_approach_s": ("s", ("time", "vector.verify_orbit_approach"),
                                       (HEADLINE, CERTIFY)),
    "shift.vector_norm.calls": ("count", ("count", "shift.vector_norm.calls"),
                                (HEADLINE, CERTIFY)),
    "shift.vector_norm_s": ("s", ("time", "shift.vector_norm"), (HEADLINE, CERTIFY)),
    "vector.family_s": ("s", ("time", "vector.family"), (HEADLINE, DEEP, CERTIFY)),
    "dyadic.count_sites.calls": ("count", ("count", "dyadic.count_sites.calls"),
                                 (HEADLINE, DEEP)),
    "dyadic.count_sites_s": ("s", ("time", "dyadic.count_sites"), (HEADLINE, DEEP)),
    "vector.checkpoint_count_s": ("s", ("time", "vector.checkpoint_count"), (HEADLINE, DEEP)),
    "densities.density_ratios_s": ("s", ("time", "densities.density_ratios"), (HEADLINE,)),
}


def _evidence(source) -> str:
    """The count that shows a metric's layer was reached at all."""
    kind = source[0]
    if kind == "time":
        return source[1] + ".calls"
    if kind == "ratio":
        return source[2]
    return source[1]


def layer_values(snapshot: dict) -> dict[str, float]:
    counts, total = snapshot["counts"], snapshot["total"]
    values = {}
    for name, (_, source, _) in PER_LAYER.items():
        kind = source[0]
        if kind == "time":
            values[name] = total.get(source[1], 0.0)
        elif kind == "count":
            values[name] = counts.get(source[1], 0)
        else:
            den = counts.get(source[2], 0)
            values[name] = counts.get(source[1], 0) / den if den else 0.0
    return values


def self_check(snapshot: dict, workload: str) -> list[str]:
    """Metrics named to move ``workload`` whose evidence count stayed zero."""
    counts = snapshot["counts"]
    return [name for name, (_, source, moves) in PER_LAYER.items()
            if workload in moves and not counts.get(_evidence(source), 0)]
