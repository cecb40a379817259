"""Per-layer tracing of one CLI invocation, from outside the package.

Run as a child process in place of ``python -m bearing_forge.cli``:

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json run SCENARIO ...

Before handing the arguments to ``bearing_forge.cli.main`` it rebinds each
traced function where its caller looks the name up, so the package itself
is untouched:

* ``cli`` imports the ``sim_engine`` functions by name;
* ``scenario`` imports ``localize_followers``, ``validate_gains``,
  ``build_bearing_laplacian``, ``build_canonical`` and ``synthesize`` by name;
* ``sim_engine`` imports ``validate_gains`` by name;
* ``Engine.__init__`` and ``Engine.rhs`` are reached through the class;
* ``CompiledScenario.target_positions`` re-imports
  ``formation_graph.localize_followers`` on every call.

Each call records a span ``[name, start, end, parent]`` in memory (parent is
the index of the enclosing span, or -1).  The spans are written to SPANS.json
when the invocation ends, with the list of targets the program no longer
has (their metrics then read 0); the process exits with the CLI's exit code.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

# (module looked up by the caller, attribute, span name)
TARGETS = [
    ("bearing_forge.cli", "oracle_report", "cli.oracle_report"),
    ("bearing_forge.cli", "write_trajectory_csv", "cli.write_trajectory_csv"),
    ("bearing_forge.scenario", "parse_config", "scenario.parse_config"),
    ("bearing_forge.scenario", "compile_scenario", "scenario.compile_scenario"),
    ("bearing_forge.scenario", "build_bearing_laplacian",
     "formation_graph.build_bearing_laplacian"),
    ("bearing_forge.scenario", "localize_followers", "formation_graph.localize_followers"),
    ("bearing_forge.formation_graph", "localize_followers",
     "formation_graph.localize_followers"),
    ("bearing_forge.scenario", "synthesize", "internal_model.synthesize"),
    ("bearing_forge.scenario", "build_canonical", "disturbance.build_canonical"),
    ("bearing_forge.scenario", "validate_gains", "control_laws.validate_gains"),
    ("bearing_forge.sim_engine", "validate_gains", "control_laws.validate_gains"),
    ("bearing_forge.sim_engine.Engine", "__init__", "sim_engine.Engine.__init__"),
    ("bearing_forge.sim_engine.Engine", "rhs", "sim_engine.Engine.rhs"),
    ("bearing_forge.cli", "integrate", "sim_engine.integrate"),
    ("bearing_forge.cli", "metrics", "sim_engine.metrics"),
    ("bearing_forge.cli", "xi_oracle", "sim_engine.xi_oracle"),
    ("bearing_forge.cli", "spectral_abscissa", "sim_engine.spectral_abscissa"),
    ("bearing_forge.cli", "build_certificate", "sim_engine.build_certificate"),
    ("bearing_forge.cli", "lyapunov_monitor", "sim_engine.lyapunov_monitor"),
]


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), None, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self, targets=TARGETS):
        """Wrap every target; record those the program no longer has."""
        wrapped = {}
        for owner_path, attr, name in targets:
            owner = _resolve(owner_path)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{owner_path}.{attr}")
                continue
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self.wrap(name, fn)
            setattr(owner, attr, wrapped[id(fn)])


def _resolve(path):
    """Module or module-level class named by a dotted path (None if absent)."""
    module, _, cls = path.rpartition(".")
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        pass
    try:
        return getattr(importlib.import_module(module), cls, None)
    except ModuleNotFoundError:
        return None


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_totals(spans):
    """Per span name: call count, total time and self time, in seconds.

    Self time is a span's duration minus the part of its interval that its
    child spans cover.
    """
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
    for idx, (name, start, end, _) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["total"] += end - start
        row["self"] += (end - start) - _covered(children.get(idx, ()), start, end)
    return dict(out)


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    from bearing_forge import cli

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"spans": tracer.spans, "missing": tracer.missing}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
