"""Spans recorded from the benchmark's side of the naecut API.

The tracer wraps the public functions the benchmark calls (the `naecut`
package attributes) and the ones `naecut.cli` imports, so each call into
a layer becomes a span: name, start, end, parent span and instance id.
Calls the library makes internally stay unwrapped, so every library span
is a leaf and only `cli.main` spans have children.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

# Span names that report under one shared layer metric.
GROUPS = {
    "formula.parse_cnf": "formula.cnf_io",
    "formula.emit_cnf": "formula.cnf_io",
    "graphs.parse_graph": "graphs.graph_io",
    "graphs.emit_graph": "graphs.graph_io",
    "graphs.parse_colouring": "graphs.graph_io",
    "graphs.emit_colouring": "graphs.graph_io",
    "graphs.verify_colouring": "graphs.verify",
    "graphs.verify_cut_triangle_free": "graphs.verify",
    "graphs.find_monochromatic_triangle": "graphs.verify",
    "reduction.parse_reduction_map": "reduction.map_io",
    "reduction.emit_reduction_map": "reduction.map_io",
    "reduction.graph_from_reduction_map": "reduction.map_io",
}


def _oracle_counts(result):
    return {"unsat": 1} if result is None else {"sat": 1}


# Work counts read off a call's result.
COUNTS = {
    "reduction.build_graph": lambda r: {"vertices": r[0].num_vertices, "edges": len(r[0].edges)},
    "graphs.enumerate_triangles": lambda r: {"triangles": len(r)},
    "transform.split_repeated_variables": lambda r: {"vars_out": r[0].num_vars},
    "solvers.brute_force_nae": _oracle_counts,
    "solvers.brute_force_cut": _oracle_counts,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "instance", "child_s", "outcome", "counts")

    def __init__(self, name, parent, instance):
        self.name = name
        self.parent = parent
        self.instance = instance
        self.start = self.end = self.child_s = 0.0
        self.outcome = "ok"
        self.counts = None

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    """Records nested spans; `instance` and `role` label the spans opened next."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.instance = None
        self._role = None

    @contextlib.contextmanager
    def role(self, name: str):
        """Suffix the spans opened inside with a role, as in `brute_force_nae.extracted`."""
        self._role = name
        try:
            yield
        finally:
            self._role = None

    def call(self, name, fn, *args, **kwargs):
        count = COUNTS.get(name)
        if self._role:
            name = f"{name}.{self._role}"
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, parent, self.instance)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.outcome = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent].child_s += span.end - span.start
        if count is not None:
            span.counts = count(result)
        return result

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    @contextlib.contextmanager
    def installed(self, nc, cli):
        """Wrap the public functions of `nc` and those `cli` imports; undo on exit."""
        saved = []
        for owner in (nc, cli):
            for attr, value in list(vars(owner).items()):
                module = getattr(value, "__module__", "") or ""
                if attr.startswith("_") or not callable(value) or isinstance(value, type):
                    continue
                if not module.startswith("naecut.") or module == "naecut.cli":
                    continue
                saved.append((owner, attr, value))
                setattr(owner, attr, self.wrap(f"{module.split('.')[1]}.{attr}", value))
        main = cli.main

        def traced_main(argv):
            sub = argv[0] if argv[0] != "verify" else f"verify_{argv[1]}"
            return self.call(f"cli.{sub}", main, argv)

        saved.append((cli, "main", main))
        cli.main = traced_main
        try:
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "instance": s.instance, "outcome": s.outcome,
                    "self_s": s.self_s, "counts": s.counts,
                }) + "\n")


class NullTracer:
    """Stands in for a Tracer when tracing is off."""

    enabled = False
    instance = None

    def role(self, name):
        return contextlib.nullcontext()

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Busy time, calls, outcomes and counts per layer metric; self time per module."""
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    total_self = 0.0
    for s in spans:
        module = s.name.split(".", 1)[0]
        total_self += s.self_s
        add(f"{module}.self_s", s.self_s)
        if module == "cli":
            add(f"{s.name}.self_s", s.self_s)
            continue
        group = GROUPS.get(s.name, s.name)
        add(f"{group}.busy_s", s.end - s.start)
        add(f"{group}.calls", 1)
        if s.outcome == "InstanceTimeout":
            add(f"{group}.timeouts", 1)
        elif s.outcome != "ok":
            add(f"{group}.errors", 1)
        for key, value in (s.counts or {}).items():
            add(f"{group}.{key}", value)
    out["solvers.self_share"] = out.get("solvers.self_s", 0.0) / total_self if total_self else 0.0
    out["trace.spans"] = len(spans)
    return out
