"""Layer-boundary instrumentation for the benchmark, installed from outside ``src/``.

Two kinds of wrapper are installed at class (or module) level, before the
objects they observe are built:

* **probes** (:func:`install_probes`) run in every mode.  They time each
  ``RuntimeManager.decide`` call (the RTM's online overhead) and add up the
  event counts returned by the event queues' ``run_until``.  They cost about
  a microsecond per call, against milliseconds per decision.
* **spans** (:func:`install_spans`) run only in the traced phase.  Each call
  across a boundary in :data:`BOUNDARIES` becomes a span (name, start, end,
  parent) in a :class:`SpanRecorder`.  A layer's self time is its spans'
  duration minus the duration of their child spans.

A boundary whose target no longer exists (a later refactor renamed it) is
skipped with a note on stderr rather than failing the benchmark: its time
then shows up as self time of the enclosing layer.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: Name of the span wrapping one traced repetition (set-up plus measured phase).
ROOT_SPAN = "bench"

#: (module, class or None for a module function, attribute, span name).
#: A span name is also the prefix of the per-layer metrics it feeds.
BOUNDARIES: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.experiments.runner", None, "run_many", "experiments"),
    ("repro.experiments.runner", None, "run", "experiments"),
    ("repro.experiments.runner", None, "build_manager_from_spec", "experiments.build"),
    ("repro.experiments.runner", None, "build_simulator_config", "experiments.build"),
    ("repro.experiments.runner", None, "build_fault_plan_from_spec", "experiments.build"),
    ("repro.experiments.runner", None, "build_scenario_from_spec", "workloads.build_scenario"),
    ("repro.workloads.diurnal", None, "write_diurnal_trace", "workloads.trace_write"),
    ("repro.workloads.traces", "ArrivalTrace", "stream_scenario", "workloads.trace_read"),
    ("repro.dnn.training", "IncrementalTrainer", "train", "dnn.train"),
    ("repro.sim.engine", "Simulator", "__init__", "sim"),
    ("repro.sim.engine", "Simulator", "prime", "sim"),
    ("repro.sim.engine", "Simulator", "run", "sim"),
    ("repro.sim.engine", "Simulator", "advance_to", "sim"),
    ("repro.sim.batched", "BatchedEngine", "run", "sim"),
    ("repro.sim.trace", "SimulationTrace", "fingerprint", "sim.fingerprint"),
    ("repro.rtm.manager", "RuntimeManager", "decide", "rtm.decide"),
    ("repro.rtm.manager", "RuntimeManager", "replay_decision", "rtm.replay"),
    ("repro.rtm.operating_points", "OperatingPointTable", "pareto", "rtm.pareto"),
    ("repro.perfmodel.energy", "EnergyModel", "cost_grid", "perfmodel.cost_grid"),
    ("repro.perfmodel.energy", "EnergyModel", "cost", "perfmodel.cost"),
    ("repro.platforms.thermal", "ThermalModel", "step", "platforms.thermal_step"),
    ("repro.platforms.power", "ClusterPowerModel", "cluster_power_mw", "platforms.power"),
    ("repro.platforms.power", "ClusterPowerModel", "cluster_power_grid_mw", "platforms.power"),
    ("repro.store.results", "ResultsStore", "put_result", "store.put_result"),
    ("repro.store.results", "ResultsStore", "close", "store.close_wait"),
    ("repro.fleet.policies", "PlacementPolicy", "place", "fleet.place"),
    ("repro.fleet.orchestrator", "FleetOrchestrator", "__init__", "fleet.build"),
    ("repro.fleet.orchestrator", "FleetOrchestrator", "run", "fleet"),
)

#: Calls counted (not timed) inside traced repetitions.
COUNTED: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.rtm.manager", "RuntimeManager", "decide_recorded", "rtm.recorded_calls"),
)

#: Event queues whose ``run_until`` returns the number of events executed.
EVENT_QUEUES: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.events", "EventQueue"),
    ("repro.sim.batched", "_FastEventQueue"),
)


def _note(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)


def _targets(module_name: str, class_name: Optional[str], attr: str):
    """(owner, raw attribute) pairs to patch: the class and every subclass defining ``attr``."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        _note(f"boundary {module_name} not importable; skipped")
        return []
    if class_name is None:
        if not callable(getattr(module, attr, None)):
            _note(f"boundary {module_name}.{attr} not found; skipped")
            return []
        return [(module, getattr(module, attr))]
    cls = getattr(module, class_name, None)
    if cls is None or attr not in cls.__dict__:
        _note(f"boundary {module_name}.{class_name}.{attr} not found; skipped")
        return []
    found, pending, seen = [], [cls], set()
    while pending:
        owner = pending.pop()
        if owner in seen:
            continue
        seen.add(owner)
        if attr in owner.__dict__:
            found.append((owner, owner.__dict__[attr]))
        pending.extend(owner.__subclasses__())
    return found


def _patch(module_name, class_name, attr, make_wrapper: Callable[[Callable], Callable]) -> None:
    """Replace ``attr`` on every target with ``make_wrapper(function)``."""
    for owner, raw in _targets(module_name, class_name, attr):
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(make_wrapper(raw.__func__))
        else:
            wrapped = make_wrapper(raw)
        setattr(owner, attr, wrapped)


# --------------------------------------------------------------------- probes


class Probes:
    """Always-on counters: RTM decide latency samples and executed events."""

    def __init__(self) -> None:
        self.active = False
        self.decide_s: List[float] = []
        self.events = 0

    def reset(self) -> None:
        self.decide_s = []
        self.events = 0


def install_probes(probes: Probes) -> None:
    """Patch the decide timer and the event counters (once per process)."""
    clock = time.perf_counter

    def time_decide(function):
        def decide(*args, **kwargs):
            if not probes.active:
                return function(*args, **kwargs)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                probes.decide_s.append(clock() - start)

        return decide

    def count_events(function):
        def run_until(*args, **kwargs):
            executed = function(*args, **kwargs)
            if probes.active:
                probes.events += executed
            return executed

        return run_until

    _patch("repro.rtm.manager", "RuntimeManager", "decide", time_decide)
    for module_name, class_name in EVENT_QUEUES:
        _patch(module_name, class_name, "run_until", count_events)


# ---------------------------------------------------------------------- spans


class SpanRecorder:
    """In-memory span store: parallel arrays, one entry per span.

    ``parent`` is the index of the enclosing span (-1 for a root).  A call
    that re-enters the layer of the innermost open span (``advance_to``
    inside ``BatchedEngine.run``, ``run`` inside ``run_many``) records no
    span of its own, so a layer's call count counts outermost entries only.
    Spans are recorded only while a root span is open.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.stack: List[int] = []
        self.counts: Counter = Counter()

    def intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0)
        self.stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self.stack.pop()

    def __len__(self) -> int:
        return len(self.start)

    def layer_totals(self, first: int = 0) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Self seconds and call counts per span name, over spans ``first..``."""
        child_ns = defaultdict(int)
        for index in range(first, len(self.start)):
            parent = self.parent[index]
            if parent >= first:
                child_ns[parent] += self.end[index] - self.start[index]
        self_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for index in range(first, len(self.start)):
            name = self.names[self.name_id[index]]
            duration = self.end[index] - self.start[index]
            self_s[name] += (duration - child_ns[index]) / 1e9
            calls[name] += 1
        return dict(self_s), dict(calls)

    def write(self, path: Path) -> None:
        """Write every span as one JSON line ``[name, start_ns, end_ns, parent]``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            for index in range(len(self.start)):
                record = [
                    self.names[self.name_id[index]],
                    self.start[index],
                    self.end[index],
                    self.parent[index],
                ]
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")


def install_spans(recorder: SpanRecorder) -> None:
    """Wrap every boundary in :data:`BOUNDARIES` and :data:`COUNTED`."""
    stack = recorder.stack
    names = recorder.name_id

    def spanned(name: str):
        name_id = recorder.intern(name)

        def make_wrapper(function):
            def wrapper(*args, **kwargs):
                if not stack or names[stack[-1]] == name_id:
                    return function(*args, **kwargs)
                index = recorder.open(name_id)
                try:
                    return function(*args, **kwargs)
                finally:
                    recorder.close(index)

            return wrapper

        return make_wrapper

    def counted(name: str):
        def make_wrapper(function):
            def wrapper(*args, **kwargs):
                if stack:
                    recorder.counts[name] += 1
                return function(*args, **kwargs)

            return wrapper

        return make_wrapper

    for module_name, class_name, attr, name in BOUNDARIES:
        _patch(module_name, class_name, attr, spanned(name))
    for module_name, class_name, attr, name in COUNTED:
        _patch(module_name, class_name, attr, counted(name))
