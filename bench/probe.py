"""Spans and captured results around lewisreg's public functions.

Each function is replaced where its caller looks it up: the module attribute
that the caller resolves at call time. Spans therefore nest the way the calls
do: `run_experiment` holds `lewis_weights`, `active_solve` and the full-data
solve, and `active_solve` holds `realize`, every `query` and the sketched
solve. The benchmark's own direct calls go through the `lewisreg` package
namespace, which is wrapped too.

Two kinds of wrapper exist. A capture wrapper only keeps the call's
arguments and result, so that the benchmark can check what the program did
inside `run_experiment`; it reads no clock and is installed on every round.
A span wrapper also records name, start, end and parent; it is installed
only on traced rounds.
"""

from __future__ import annotations

import functools
import importlib
import time

# (span name, module whose attribute is replaced, attribute, captured)
SITES = (
    ("experiments.run_experiment", "lewisreg.experiments", "run_experiment", True),
    ("instances.gen_random", "lewisreg.experiments", "gen_random", True),
    ("lewis.lewis_weights", "lewisreg.experiments", "lewis_weights", True),
    ("lewis.lewis_weights", "lewisreg", "lewis_weights", True),
    ("lewis.importance_weights", "lewisreg", "importance_weights", True),
    ("lewis.sandwich_check", "lewisreg", "sandwich_check", True),
    ("sampling.plan_l1", "lewisreg.experiments", "plan_l1", True),
    ("sampling.plan_l1", "lewisreg", "plan_l1", True),
    ("sampling.plan_lp", "lewisreg.experiments", "plan_lp", True),
    ("sampling.realize", "lewisreg.experiments", "realize", True),
    ("sampling.realize", "lewisreg.oracle", "realize", False),
    ("oracle.active_solve", "lewisreg.experiments", "active_solve", True),
    ("oracle.active_solve", "lewisreg", "active_solve", True),
    ("oracle.query", "lewisreg.oracle", "query", False),
    ("solvers.sketch_l1", "lewisreg.oracle", "solve_weighted_l1", False),
    ("solvers.sketch_lp", "lewisreg.oracle", "solve_weighted_lp", False),
    ("solvers.full_l1", "lewisreg.experiments", "solve_weighted_l1", True),
    ("solvers.full_lp", "lewisreg.experiments", "solve_weighted_lp", True),
    ("verify.ruc_check", "lewisreg.experiments", "ruc_check", True),
    ("verify.embedding_check", "lewisreg.experiments", "embedding_check", True),
    ("verify.cross_term_check", "lewisreg.experiments", "cross_term_check", True),
)


class Probe:
    """Wraps the sites for one round; `spans` and `calls` hold what it saw.

    A span is `[name, start_ns, end_ns, parent]`, where `parent` is the index
    of the enclosing span or None. A call is `(name, args, kwargs, result)`.
    """

    def __init__(self, tracing: bool):
        self.tracing = tracing
        self.spans: list[list] = []
        self.calls: list[tuple] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Probe":
        try:
            for name, mod, attr, captured in SITES:
                if not (captured or self.tracing):
                    continue
                module = importlib.import_module(mod)
                fn = getattr(module, attr, None)
                if fn is None:
                    raise RuntimeError(f"{mod}.{attr} is missing; span {name} cannot be recorded")
                self._saved.append((module, attr, fn))
                wrapper = self._span(name, fn, captured) if self.tracing else self._capture(name, fn)
                setattr(module, attr, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _capture(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls.append((name, args, kwargs, result))
            return result

        return wrapper

    def _span(self, name, fn, captured):
        spans, stack, calls = self.spans, self._stack, self.calls
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if captured:
                calls.append((name, args, kwargs, result))
            return result

        return wrapper


def span_times(spans) -> tuple[dict, dict, float]:
    """Total and self seconds per span name, and the seconds root spans cover."""
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    child_sum = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_sum[parent] += end - start
    roots = 0
    for k, (name, start, end, parent) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start) * 1e-9
        self_s[name] = self_s.get(name, 0.0) + (end - start - child_sum[k]) * 1e-9
        if parent is None:
            roots += end - start
    return total, self_s, roots * 1e-9
