"""Span tracer installed from outside the program.

``Tracer`` replaces each traced ``mteq`` function with a timing wrapper in
every ``mteq`` module that holds a reference to it (``solve_equilibrium`` in
``cli`` and ``experiments``, the ``choice`` kernels through the module
attribute that ``equilibrium`` looks up, and so on).  scipy's ``spsolve`` is
wrapped separately in each module that imported it, so the routing solve
and the metrics solve are told apart.  Nothing inside ``mteq`` changes.

Spans (name, start, end, parent, scope) are kept in flat arrays in memory
and written out once, when the run ends.  A span's self time is its
duration minus the durations of its direct children; the program is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# Layers are named "<defining module>.<function>".
LAYERS = (
    "cli.run",
    "network.shortest_costs",
    "choice.phi_nodes",
    "choice.probs_nodes",
    "choice.log_denominator_nodes",
    "equilibrium.solve_equilibrium",
    "equilibrium.solve_tau",
    "equilibrium.flows_for_destination",
    "equilibrium.solution_to_dict",
    "equilibrium.solution_from_dict",
    "instance.load_instance",
    "instance.save_instance",
    "metrics.compute_metrics",
    "metrics.all_trip_stats",
    "metrics.simulate_trips",
    "experiments.run_sweep",
    "experiments.persist_results",
    "pricing.expand_scheme",
    "synthgen.gen_grid",
)

# A function imported from outside mteq, traced under the importing module.
IMPORTED = {
    "equilibrium.spsolve": ("equilibrium", "spsolve"),
    "metrics.spsolve": ("metrics", "spsolve"),
}

# Work counts read from return values: layer -> (counter, value of one call).
COUNTERS = {
    "equilibrium.solve_equilibrium": ("equilibrium.outer_passes", lambda r: r.outer_iterations),
    "equilibrium.solve_tau": ("equilibrium.tau_sweeps", lambda r: r.iterations),
    "metrics.simulate_trips": ("metrics.trips", lambda r: len(r.trips)),
    "experiments.run_sweep": ("experiments.schemes", len),
}


class Tracer:
    """Records the spans of the calls made inside ``recording`` blocks."""

    def __init__(self):
        self.names: list[str] = []
        self.scopes: list[str] = []
        self._name_id: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._scope = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)

    # -- recording ----------------------------------------------------------

    @contextmanager
    def recording(self, label: str):
        """Trace the calls of a block, attributed to ``label`` (an op or a
        set-up): the wrappers are installed on entry and the original
        functions restored on exit."""
        self.scopes.append(label)
        sid = len(self.scopes) - 1
        patches = []
        mteq = {name: mod for name, mod in sys.modules.items()
                if (name == "mteq" or name.startswith("mteq.")) and mod is not None}
        targets = []
        for layer in LAYERS:
            module, attr = layer.split(".")
            original = getattr(mteq[f"mteq.{module}"], attr)
            targets.append((layer, [(mod, key) for mod in mteq.values()
                                    for key, value in vars(mod).items() if value is original]))
        for layer, (module, attr) in IMPORTED.items():
            targets.append((layer, [(mteq[f"mteq.{module}"], attr)]))
        try:
            for layer, places in targets:
                mod, key = places[0]
                wrapper = self._wrap(layer, getattr(mod, key), sid)
                for mod, key in places:
                    patches.append((mod, key, getattr(mod, key)))
                    setattr(mod, key, wrapper)
            yield sid
        finally:
            for mod, key, original in reversed(patches):
                setattr(mod, key, original)

    def _wrap(self, layer: str, fn, sid: int):
        nid = self._name_id.setdefault(layer, len(self.names))
        if nid == len(self.names):
            self.names.append(layer)
        counter = COUNTERS.get(layer)
        stack, clock = self._stack, time.perf_counter
        name, parent, scope = self._name, self._parent, self._scope
        start, end = self._start, self._end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            scope.append(sid)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if counter is not None:
                self.counts[(sid, counter[0])] += counter[1](result)
            return result

        return traced

    def _arrays(self) -> dict[str, np.ndarray]:
        # copies, so that no view keeps the growing arrays from resizing
        return {"name": np.frombuffer(self._name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
                "scope": np.frombuffer(self._scope, dtype=np.int32).copy(),
                "start": np.frombuffer(self._start, dtype=float).copy(),
                "end": np.frombuffer(self._end, dtype=float).copy()}

    def totals(self) -> dict[int, dict[str, float]]:
        """Per scope: ``<layer>.s`` self time, ``<layer>.calls`` and the
        return-value counters, all summed over the scope."""
        spans = self._arrays()
        name, parent, scope = spans["name"], spans["parent"], spans["scope"]
        dur = spans["end"] - spans["start"]
        child = parent >= 0
        self_time = dur - np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        out: dict[int, dict[str, float]] = {i: {} for i in range(len(self.scopes))}
        for sid in range(len(self.scopes)):
            mine = scope == sid
            s = np.bincount(name[mine], weights=self_time[mine], minlength=len(self.names))
            c = np.bincount(name[mine], minlength=len(self.names))
            row = out[sid]
            for nid, layer in enumerate(self.names):
                row[f"{layer}.s"] = float(s[nid])
                row[f"{layer}.calls"] = int(c[nid])
            row["trace.spans"] = int(mine.sum())
        for (sid, counter), value in self.counts.items():
            out[sid][counter] = out[sid].get(counter, 0) + value
        return out

    def save(self, path: Path) -> None:
        """Write every span as arrays: name id, parent index, scope id,
        start and end (perf_counter seconds), plus the name and scope tables."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), scopes=np.array(self.scopes),
                 **self._arrays())


# Every per-layer metric and its unit.
PER_LAYER = {
    **{f"{layer}.s": "s" for layer in LAYERS + tuple(IMPORTED)},
    **{f"{layer}.calls": "count" for layer in (
        "network.shortest_costs", "choice.phi_nodes", "equilibrium.solve_equilibrium",
        "equilibrium.solve_tau", "equilibrium.flows_for_destination", "equilibrium.spsolve",
        "pricing.expand_scheme")},
    "equilibrium.outer_passes": "count",
    "equilibrium.tau_sweeps": "count",
    "equilibrium.tau_sweeps_per_call": "ratio",
    "equilibrium.pairs_per_pass": "ratio",
    "equilibrium.spsolve_per_route": "ratio",
    "metrics.trips": "count",
    "experiments.schemes": "count",
    "setup.equilibrium.outer_passes": "count",
    "trace.spans": "count",
    "trace.op_s": "s",
    "trace.overhead_frac": "ratio",
}

# Layers that only input generation enters, measured per set-up.
SETUP_LAYERS = ("synthgen.gen_grid.s", "instance.save_instance.s")


def layer_metrics(op_totals: list[dict], setup_totals: list[dict]) -> dict[str, float]:
    """Median over ops of each per-op total, except the input-generation
    layers and ``setup.equilibrium.outer_passes`` (the set-up solve of the
    simulate workload), which are medians over set-ups."""
    median = lambda totals, key: statistics.median(t.get(key, 0) for t in totals)
    out = {key: median(op_totals, key) for key in sorted(set().union(*op_totals))}
    for key in SETUP_LAYERS:
        out[key] = median(setup_totals, key)
    out["setup.equilibrium.outer_passes"] = median(setup_totals, "equilibrium.outer_passes")
    calls = lambda layer: out.get(f"{layer}.calls", 0)
    ratio = lambda a, b: a / b if b else 0.0
    out["equilibrium.tau_sweeps_per_call"] = ratio(
        out.get("equilibrium.tau_sweeps", 0), calls("equilibrium.solve_tau"))
    out["equilibrium.pairs_per_pass"] = ratio(
        calls("equilibrium.flows_for_destination"), out.get("equilibrium.outer_passes", 0))
    out["equilibrium.spsolve_per_route"] = ratio(
        calls("equilibrium.spsolve"), calls("equilibrium.flows_for_destination"))
    return out
