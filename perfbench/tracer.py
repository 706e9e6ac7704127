"""Per-layer spans taken from outside the library.

A span is timed by rebinding, for the duration of a traced block, the name that
the calling module looks up (for example ``dasris.harness.das_solve``) to a
wrapper around the original function. Nothing under ``src/`` changes, and
uninstalling puts every original back. A call site that a later version of the
library no longer has is skipped, so its span reports zero calls.

Calls nest on one thread, so a span's self time is its duration minus the
durations of the spans it called directly.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass
from typing import Any, Callable

Counter = Callable[[tuple, Any], float]


def _elements(args: tuple, result: Any) -> float:
    return float(args[0].n + 1)


def _evaluations(args: tuple, result: Any) -> float:
    return float(result.evaluations)


# span name -> (call sites "module:attribute", per-call unit counter or None).
# Each site is where a caller in another layer (or the benchmark itself)
# looks the callee up at call time.
SPANS: dict[str, tuple[tuple[str, ...], Counter | None]] = {
    "cli.main": (("dasris.cli:main",), None),
    "harness.run_plan": (("dasris.cli:run_plan",), None),
    "harness.trial_seeds": (("dasris.harness:trial_seeds",), None),
    "harness.aggregate": (("dasris.cli:aggregate",), None),
    "harness.write_csv": (
        ("dasris.cli:write_trial_csv", "dasris.cli:write_aggregate_csv"), None),
    "model.generate_channel": (
        ("dasris.harness:generate_channel", "dasris.cli:generate_channel"), None),
    "das.das_solve": (
        ("dasris.das:das_solve", "dasris.harness:das_solve", "dasris.cli:das_solve"),
        _elements),
    "model.composite_phi": (("dasris.das:composite_phi",), None),
    "model.received_power": (
        ("dasris.das:received_power", "dasris.baselines:received_power"), None),
    "baselines.exhaustive_search": (
        ("dasris.harness:exhaustive_search", "dasris.cli:exhaustive_search"),
        _evaluations),
    "baselines.greedy_bitflip": (("dasris.harness:greedy_bitflip",), _evaluations),
    "baselines.random_best_of_k": (("dasris.harness:random_best_of_k",), None),
}


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    units: float = 0.0


class Tracer:
    """Collects call count, total and self time per span while installed."""

    def __init__(self, spans=SPANS, clock: Callable[[], float] = time.perf_counter):
        self.spans = spans
        self.clock = clock
        self.stats = {name: SpanStats() for name in spans}
        self._stack: list[list[float]] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable, counter: Counter | None = None) -> Callable:
        stats = self.stats[name]
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed
            if counter is not None:
                stats.units += counter(args, result)
            return result

        return traced

    def install(self) -> None:
        for name, (sites, counter) in self.spans.items():
            for site in sites:
                module_name, attr = site.split(":")
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                self._saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, counter))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
