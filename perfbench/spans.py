"""Spans at dss_alloc's layer boundaries, recorded from outside the package.

install() replaces each boundary function with a timing wrapper wherever a
loaded dss_alloc module binds it, so calls between layers pass through the
wrapper (analysis.access_pmf reaches numerics through
analysis.hypergeometric_pmf, for example). A boundary that a later version
no longer has records no span. Spans are aggregated in memory as they end:
per name the calls, inclusive time and self time (inclusive time minus the
time of child spans), and per (parent, child) pair the inclusive time.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

# (span name, defining module, function); one span name may cover several
# functions.
BOUNDARIES = (
    ("numerics.pmf", "dss_alloc.numerics", "hypergeometric_pmf"),
    ("numerics.pmf", "dss_alloc.numerics", "binomial_pmf"),
    ("numerics.harmonic_gap", "dss_alloc.numerics", "harmonic_gap"),
    ("models.conditional_rate", "dss_alloc.models", "conditional_rate"),
    ("analysis.access_pmf", "dss_alloc.analysis", "access_pmf"),
    ("analysis.service_rate", "dss_alloc.analysis", "service_rate"),
    ("analysis.recovery_probability", "dss_alloc.analysis", "recovery_probability"),
    ("analysis.search", "dss_alloc.analysis", "optimal_alpha"),
    ("analysis.search", "dss_alloc.analysis", "alpha_table"),
    ("conditions.classify", "dss_alloc.conditions", "classify"),
    ("presets.preset_rows", "dss_alloc.presets", "preset_rows"),
    ("simulator.rate_pass", "dss_alloc.simulator", "estimate_service_rate"),
    ("simulator.recovery_pass", "dss_alloc.simulator", "estimate_recovery_probability"),
    ("cli.main", "dss_alloc.cli", "main"),
)

SIMULATOR_SPANS = ("simulator.rate_pass", "simulator.recovery_pass")

# Simulator streams at or above this key are per-stratum top-ups, not blocks.
_TOPUP_KEY_BASE = 1 << 63


class Tracer:
    """Span and counter aggregates for one traced round."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: dict[str, list[float]] = {}  # name -> [calls, inclusive, self]
        self.edges: dict[tuple[str | None, str], float] = {}
        self.cpu: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self._search_depth = 0
        self._originals: dict[str, object] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name: str, fn, *, cpu: bool = False, on_result=None):
        """Return fn wrapped in a span; on_result(result) runs when it returns."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = [name, 0.0]  # name, time of child spans
            stack.append(frame)
            cpu0 = time.process_time() if cpu else 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                cpu_used = time.process_time() - cpu0 if cpu else 0.0
                stack.pop()
                parent = stack[-1][0] if stack else None
                if stack:
                    stack[-1][1] += elapsed
                with self._lock:
                    agg = self.spans.setdefault(name, [0, 0.0, 0.0])
                    agg[0] += 1
                    agg[1] += elapsed
                    agg[2] += elapsed - frame[1]
                    key = (parent, name)
                    self.edges[key] = self.edges.get(key, 0.0) + elapsed
                    if cpu:
                        self.cpu[name] = self.cpu.get(name, 0.0) + cpu_used
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _search(self, fn):
        """Span for the alpha search; counts alphas at the outermost search only."""
        inner = self.span("analysis.search", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._search_depth += 1
            try:
                result = inner(*args, **kwargs)
            finally:
                self._search_depth -= 1
            if self._search_depth == 0:
                table = getattr(result, "table", result)
                self.count("analysis.alphas", len(table))
            return result

        return wrapper

    def _rate_pass_result(self, estimate) -> None:
        self.count("simulator.trials", int(getattr(estimate, "trials", 0)))
        self.count("simulator.strata", len(getattr(estimate, "per_phi_mean_time", {})))
        self.count("simulator.topup_draws", sum(getattr(estimate, "topup_counts", {}).values()))

    def _block_stream(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if len(args) > 1 and isinstance(args[1], int) and args[1] < _TOPUP_KEY_BASE:
                self.count("simulator.blocks")
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every boundary in the loaded dss_alloc modules."""
        wrapped: list[tuple[object, object]] = []
        for name, module_name, attr in BOUNDARIES:
            fn = getattr(sys.modules.get(module_name), attr, None)
            if fn is None:
                continue
            self._originals[attr] = fn
            if name == "analysis.search":
                wrapped.append((fn, self._search(fn)))
            elif name == "simulator.rate_pass":
                wrapped.append((fn, self.span(name, fn, cpu=True,
                                              on_result=self._rate_pass_result)))
            else:
                wrapped.append((fn, self.span(name, fn, cpu=name in SIMULATOR_SPANS)))
        block_rng = getattr(sys.modules.get("dss_alloc.simulator"), "_block_rng", None)
        if block_rng is not None:
            wrapped.append((block_rng, self._block_stream(block_rng)))
        modules = [mod for key, mod in list(sys.modules.items())
                   if mod is not None and (key == "dss_alloc" or key.startswith("dss_alloc."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                for original, wrapper in wrapped:
                    if value is original:
                        setattr(module, attr, wrapper)

    def harmonic_gap_hit_ratio(self) -> float:
        """Cache hits / calls of harmonic_gap's cache; 0 when it has no cache."""
        info = getattr(self._originals.get("harmonic_gap"), "cache_info", None)
        if info is None:
            return 0.0
        stats = info()
        calls = stats.hits + stats.misses
        return stats.hits / calls if calls else 0.0

    def layer_metrics(self, bytes_out: int) -> dict[str, float]:
        """Return the per-layer metrics of the benchmark, by name."""

        def calls(name):
            return self.spans.get(name, (0, 0.0, 0.0))[0]

        def inclusive(name):
            return self.spans.get(name, (0, 0.0, 0.0))[1]

        def self_time(name):
            return self.spans.get(name, (0, 0.0, 0.0))[2]

        alphas = self.counts.get("analysis.alphas", 0)
        sim_wall = sum(inclusive(name) for name in SIMULATOR_SPANS)
        sim_cpu = sum(self.cpu.get(name, 0.0) for name in SIMULATOR_SPANS)
        trials = self.counts.get("simulator.trials", 0)
        analytic_ref = (
            self.edges.get(("cli.main", "analysis.service_rate"), 0.0)
            + self.edges.get(("cli.main", "analysis.recovery_probability"), 0.0)
            + sum(self.edges.get((name, "analysis.access_pmf"), 0.0) for name in SIMULATOR_SPANS)
        )
        return {
            "numerics.pmf.calls": calls("numerics.pmf"),
            "numerics.pmf.s": inclusive("numerics.pmf"),
            "numerics.harmonic_gap.calls": calls("numerics.harmonic_gap"),
            "numerics.harmonic_gap.s": inclusive("numerics.harmonic_gap"),
            "numerics.harmonic_gap.hit_ratio": self.harmonic_gap_hit_ratio(),
            "models.conditional_rate.calls": calls("models.conditional_rate"),
            "models.conditional_rate.s": inclusive("models.conditional_rate"),
            "analysis.alphas": alphas,
            "analysis.access_pmf.calls": calls("analysis.access_pmf"),
            "analysis.access_pmf.s": inclusive("analysis.access_pmf"),
            "analysis.access_pmf.per_alpha": calls("analysis.access_pmf") / alphas if alphas else 0.0,
            "analysis.service_rate.s": inclusive("analysis.service_rate"),
            "analysis.recovery_probability.s": inclusive("analysis.recovery_probability"),
            "analysis.search.self_s": self_time("analysis.search"),
            "conditions.classify.calls": calls("conditions.classify"),
            "conditions.classify.s": inclusive("conditions.classify"),
            "presets.preset_rows.s": inclusive("presets.preset_rows"),
            "cli.calls": calls("cli.main"),
            "cli.self_s": self_time("cli.main"),
            "cli.bytes_out": bytes_out,
            "simulator.rate_pass.s": inclusive("simulator.rate_pass"),
            "simulator.recovery_pass.s": inclusive("simulator.recovery_pass"),
            "simulator.analytic_ref.s": analytic_ref,
            "simulator.trials": trials,
            "simulator.blocks": self.counts.get("simulator.blocks", 0),
            "simulator.strata": self.counts.get("simulator.strata", 0),
            "simulator.topup_draws": self.counts.get("simulator.topup_draws", 0),
            "simulator.trials_per_s": trials / sim_wall if sim_wall else 0.0,
            "simulator.cpu_per_wall": sim_cpu / sim_wall if sim_wall else 0.0,
        }
