"""Spans around the public functions of each datamarket module, recorded from
outside the package.

`Tracer.install()` rebinds every traced function, in each module of the
package that holds it by name, to a wrapper that records a span: name, start,
end, parent span and the operation id the benchmark set.  `uninstall()` puts
the original bindings back, so untraced runs call the package unmodified.

Functions called thousands of times per operation (the effort map and the
small OLS fits) are aggregated instead of kept one span per call, so memory
stays bounded; their time still counts as a child of the calling span.
A layer is a module; its self time is its spans' durations minus the part
their traced children cover.
"""

from __future__ import annotations

import importlib
import sys
import time

# (module, function, keep one span per call)
TRACED = (
    ("scenario", "parse_scenario", True),
    ("scenario", "serialize_scenario", True),
    ("scenario", "generate_scenario_with_attempts", True),
    ("market", "validate_scenario", True),
    ("market", "derive_beta", True),
    ("market", "derive_xi", True),
    ("market", "derive_gamma", True),
    ("market", "assemble_xi_matrix", True),
    ("market", "derive_parameters", True),
    ("equilibrium", "spectral_radius", True),
    ("equilibrium", "solve_unbounded", True),
    ("equilibrium", "solve_bounded", True),
    ("equilibrium", "certify_equilibrium", True),
    ("equilibrium", "canonical_c", True),
    ("equilibrium", "best_response_residual", True),
    ("equilibrium", "alpha_sweep", True),
    ("welfare", "price_of_anarchy", True),
    ("effort", "effort_response", False),
    ("estimators", "ols_coefficients", False),
    ("estimators", "trial_stream", True),
    ("results", "result_to_json", True),
    ("results", "result_from_json", True),
    ("results", "rounds_csv", True),
    ("simulate", "iter_rounds", True),   # one "simulate.round" span per round
    ("cli", "cli", True),                # one "cli.<subcommand>" span per call
)

OPERATION = "operation"   # the benchmark's own span around one operation


class Tracer:
    """In-memory spans and per-(phase, name) totals."""

    def __init__(self):
        self.spans: list[tuple] = []     # (name, start, end, parent id, op id)
        self.totals: dict[tuple[str, str], list] = {}  # -> [calls, inclusive s, self s]
        self.durations: dict[tuple[str, str], list[float]] = {}
        self.phase = "setup"
        self.op_id: int | None = None
        self._stack: list[list] = []     # [span id, name, start, child seconds]
        self._next_id = 0
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [self._next_id, name, 0.0, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _exit(self, frame: list, keep: bool) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[2]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        key = (self.phase, frame[1])
        entry = self.totals.setdefault(key, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame[3]
        if keep:
            self.durations.setdefault(key, []).append(duration)
            self.spans.append((frame[1], frame[2], end,
                               parent[0] if parent is not None else None, self.op_id))

    def span(self, name: str):
        return _Span(self, name)

    def _wrap(self, name: str, fn, keep: bool):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame, keep)

        return traced

    def _wrap_rounds(self, fn):
        tracer = self

        def iter_rounds(*args, **kwargs):
            return tracer._spanned_rounds(fn(*args, **kwargs))

        return iter_rounds

    def _spanned_rounds(self, rounds):
        while True:
            frame = self._enter("simulate.round")
            try:
                item = next(rounds)
            except StopIteration:
                self._stack.pop()   # the exhausted call is no round
                return
            except BaseException:
                self._exit(frame, True)
                raise
            self._exit(frame, True)
            yield item

    def _wrap_cli(self, fn):
        tracer = self

        def cli(argv=None):
            name = f"cli.{argv[0]}" if argv else "cli.cli"
            frame = tracer._enter(name)
            try:
                return fn(argv)
            finally:
                tracer._exit(frame, True)

        return cli

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        traced = [importlib.import_module(f"datamarket.{m}") for m, _, _ in TRACED]
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "datamarket" or k.startswith("datamarket."))]
        for module, (module_name, fn_name, keep) in zip(traced, TRACED):
            original = getattr(module, fn_name)
            if fn_name == "iter_rounds":
                wrapper = self._wrap_rounds(original)
            elif fn_name == "cli":
                wrapper = self._wrap_cli(original)
            else:
                wrapper = self._wrap(f"{module_name}.{fn_name}", original, keep)
            for namespace in modules:
                holders = [attr for attr, value in vars(namespace).items()
                           if value is original]
                for attr in holders:
                    setattr(namespace, attr, wrapper)
                    self._saved.append((namespace, attr, original))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._saved):
            setattr(namespace, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- summaries ---------------------------------------------------------

    def total(self, phase: str, name: str) -> tuple[int, float, float]:
        calls, inclusive, own = self.totals.get((phase, name), (0, 0.0, 0.0))
        return calls, inclusive, own

    def layer_self_times(self, phase: str) -> dict[str, float]:
        """Self seconds per layer (module) in one phase; the benchmark's own
        operation span reports as "unaccounted"."""
        layers: dict[str, float] = {}
        for (p, name), (_, _, own) in self.totals.items():
            if p != phase:
                continue
            layer = "unaccounted" if name == OPERATION else name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + own
        return layers


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        self._name = name
        self._frame = None

    def __enter__(self):
        self._frame = self._tracer._enter(self._name)
        return self

    def __exit__(self, *exc):
        self._tracer._exit(self._frame, True)
