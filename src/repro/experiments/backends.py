"""Execution backends: the strategies ``run_many`` can execute a batch with.

An execution backend turns a sequence of validated :class:`ExperimentSpec`
objects into an :class:`ExperimentBatch`.  Three ship with the repo:

``serial``
    One spec after another in this process.  Every backend runs the same
    :class:`~repro.sim.engine.Simulator` and must produce bit-identical
    results; the golden fingerprints are the reference.
``process``
    Fan the specs out over a :class:`~concurrent.futures.ProcessPoolExecutor`
    (``workers`` processes).  Best for a handful of long, heterogeneous
    simulations on a multi-core machine.  Survives worker crashes: a
    collapsed pool (``BrokenProcessPool``) is rebuilt once and the lost
    specs resubmitted, and an optional per-spec timeout watchdog turns a
    hung batch into per-spec errors instead of an eternal wait.
``batched``
    The lock-step engine of :mod:`repro.sim.batched`: every replica advances
    in one process and decision epochs resolve through shared value-keyed
    operating-point/decision stores.  Best for large homogeneous sweeps
    (seeds x scenarios x managers) — redundancy across replicas, not core
    count, is what it exploits, so it beats the process pool on a single
    core.

Backends are named components in :data:`EXECUTION_BACKEND_REGISTRY`, joining
the scenario/manager/platform/policy registries, so the CLI can enumerate
them and specs-on-disk can reference them by name.  Every backend isolates
per-spec failures (``ExperimentBatch.errors``) and reassembles results in
submission order.  Failure messages carry the exception on the first line
(``"TypeName: message"``) followed by a truncated traceback, and are streamed
to the results store (when one is attached) alongside completed results.
"""

from __future__ import annotations

import abc
import json
import time
import traceback
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from typing import Dict, Optional, Sequence

from repro.experiments.spec import ExperimentSpec
from repro.registry import Registry, find_duplicates

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "BatchedBackend",
    "EXECUTION_BACKEND_REGISTRY",
    "make_execution_backend",
]

#: Truncation bounds for captured tracebacks in failure messages: enough to
#: localise the fault, small enough to live in a store column and a terminal.
_TRACEBACK_LINES = 20
_TRACEBACK_CHARS = 2000


class ExecutionBackend(abc.ABC):
    """Strategy for executing a batch of experiment specs."""

    #: Registry name of the backend.
    name: str = "base"

    @abc.abstractmethod
    def execute(
        self,
        specs: Sequence[ExperimentSpec],
        workers: int = 1,
        store=None,
        spec_timeout: Optional[float] = None,
    ):
        """Run the (already validated) specs; returns an ``ExperimentBatch``.

        ``store`` is an optional :class:`~repro.store.ResultsStore`: every
        backend streams each completed result to it *as the result finishes*
        (not in a final flush), so a batch killed mid-run has everything
        completed so far on disk and ``run_many(..., resume=True)`` picks up
        where it died.  Per-spec failures are streamed the same way (to the
        store's ``errors`` table), so a post-mortem has the tracebacks even
        if the orchestrating process is gone.

        ``spec_timeout`` is a stall watchdog in seconds, honoured by the
        ``process`` backend: if *no* spec completes within the window the
        remaining specs are recorded as timeout failures instead of blocking
        forever.  Single-process backends run on the caller's thread and
        cannot preempt a simulation, so they accept and ignore it.

        Backends that are single-process by construction reject
        ``workers > 1`` with a ``ValueError`` rather than silently ignoring
        the request.
        """

    def _require_single_worker(self, workers: int) -> None:
        if workers != 1:
            raise ValueError(
                f"the {self.name!r} backend is single-process and does not accept "
                f"workers={workers}; use backend='process' to run on a worker pool"
            )

    def _reject_duplicate_labels(self, specs: Sequence[ExperimentSpec]) -> None:
        """Shared duplicate-label guard: identical across all backends.

        Batches are keyed by label, so two specs sharing one would silently
        drop a submission and misattribute results; every backend rejects
        the batch up front instead (give repeats explicit ``name``\\ s).
        """
        duplicates = find_duplicates(spec.label for spec in specs)
        if duplicates:
            raise ValueError(
                f"duplicate experiment labels: {duplicates}; give repeated "
                "entries distinct 'name' keys"
            )


def _format_failure(exc: BaseException) -> str:
    """One-line summary plus a truncated traceback.

    The first line stays ``"TypeName: message"`` — the format every earlier
    release used and tests/stores match on — with the formatted traceback
    (bounded to the last ~20 lines / 2000 characters) after the newline.
    Worker-side tracebacks survive the process boundary via the
    ``_RemoteTraceback`` cause that ``ProcessPoolExecutor`` attaches.
    """
    head = f"{type(exc).__name__}: {exc}"
    try:
        formatted = "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        ).strip()
    except Exception:  # noqa: BLE001 - formatting must never mask the error
        formatted = ""
    if not formatted:
        return head
    lines = formatted.splitlines()
    if len(lines) > _TRACEBACK_LINES:
        lines = ["... (traceback truncated)"] + lines[-_TRACEBACK_LINES:]
    body = "\n".join(lines)
    if len(body) > _TRACEBACK_CHARS:
        body = "... (traceback truncated)\n" + body[-_TRACEBACK_CHARS:]
    return head + "\n" + body


def _store_result(store, result, wall_time_s: Optional[float]) -> None:
    """Stream one completed result to the store (no-op without a store)."""
    if store is not None:
        store.put_result(result, wall_time_s=wall_time_s)


def _store_error(store, spec: ExperimentSpec, message: str) -> None:
    """Stream one per-spec failure to the store (no-op without a store).

    Errors live in their own table keyed by spec id and never count as
    completed results, so ``resume=True`` recomputes them.
    """
    if store is not None:
        store.put_error(spec.spec_id(), spec.label, message)


def _index_failures(specs, *label_failures):
    """Re-key label-keyed failure maps by submission index for ``_assemble``."""
    merged: Dict[str, str] = {}
    for failures in label_failures:
        merged.update(failures)
    return {
        index: merged[spec.label]
        for index, spec in enumerate(specs)
        if spec.label in merged
    }


def _assemble(specs, outcomes, failures):
    """Reassemble per-index outcomes into a batch, in submission order.

    ``outcomes``/``failures`` are keyed by submission index — never by
    label, which is display-only identity (labels are guaranteed unique by
    ``_reject_duplicate_labels``, but indices are what execution is tracked
    by).
    """
    from repro.experiments.runner import ExperimentBatch

    batch = ExperimentBatch()
    for index, spec in enumerate(specs):
        if index in outcomes:
            batch.results[spec.label] = outcomes[index]
        else:
            batch.errors[spec.label] = failures[index]
    return batch


class SerialBackend(ExecutionBackend):
    """Specs executed one after another in this process."""

    name = "serial"

    def execute(
        self,
        specs: Sequence[ExperimentSpec],
        workers: int = 1,
        store=None,
        spec_timeout: Optional[float] = None,
    ):
        from repro.experiments.runner import _run_one

        self._require_single_worker(workers)
        self._reject_duplicate_labels(specs)
        outcomes, failures = {}, {}
        for index, spec in enumerate(specs):
            try:
                start = time.perf_counter()
                result = _run_one(spec)
                outcomes[index] = result
            except Exception as exc:  # noqa: BLE001 - per-spec isolation
                failures[index] = _format_failure(exc)
                _store_error(store, spec, failures[index])
            else:
                _store_result(store, result, time.perf_counter() - start)
        return _assemble(specs, outcomes, failures)


class ProcessBackend(ExecutionBackend):
    """Specs fanned out over a process pool (``workers`` processes).

    ``workers=1`` degenerates to the in-process serial loop — no executor,
    same results (the design invariant of the sweep engine: results are
    reassembled in submission order, so aggregates are byte-identical for
    any worker count).

    Crash tolerance: a worker dying (OOM-killed, segfault, ``SIGKILL``)
    collapses the whole :class:`ProcessPoolExecutor` — every in-flight
    future raises ``BrokenProcessPool``.  Rather than losing the batch, the
    backend rebuilds the pool **once** and resubmits only the specs whose
    results were lost; specs still broken after the second round come back
    as per-spec errors.  The optional ``spec_timeout`` watchdog guards
    against hung workers: if no spec completes within the window, every
    still-pending spec is recorded as a timeout failure and the pool is
    abandoned without waiting for it.
    """

    name = "process"

    #: Initial submission plus one fresh-pool resubmission after a collapse.
    _MAX_ROUNDS = 2

    def execute(
        self,
        specs: Sequence[ExperimentSpec],
        workers: int = 1,
        store=None,
        spec_timeout: Optional[float] = None,
    ):
        self._reject_duplicate_labels(specs)
        if workers == 1:
            # Degenerate case runs on the caller's thread; the watchdog
            # cannot preempt it, mirroring the serial backend's contract.
            return SerialBackend().execute(specs, workers=1, store=store)
        outcomes: Dict[int, object] = {}
        failures: Dict[int, str] = {}
        pending = dict(enumerate(specs))
        lost: Dict[int, str] = {}
        for _ in range(self._MAX_ROUNDS):
            if not pending:
                break
            lost = self._run_round(
                pending, outcomes, failures, workers, store, spec_timeout, specs
            )
            pending = {index: specs[index] for index in lost}
        for index, message in lost.items():
            # Pool collapsed on the resubmission round too: surface the
            # second breakage per spec instead of retrying forever.
            failures[index] = message
            _store_error(store, specs[index], message)
        return _assemble(specs, outcomes, failures)

    def _run_round(
        self,
        indexed_specs: Dict[int, ExperimentSpec],
        outcomes: Dict[int, object],
        failures: Dict[int, str],
        workers: int,
        store,
        spec_timeout: Optional[float],
        specs: Sequence[ExperimentSpec],
    ) -> Dict[int, str]:
        """Run one pool round; returns specs lost to pool collapse (by index).

        Completed results/ordinary failures are recorded (and streamed to the
        store) in place.  ``BrokenProcessPool`` casualties are *returned* so
        the caller can resubmit them on a fresh pool; watchdog timeouts are
        terminal failures, not resubmission candidates (a spec that hung once
        would likely hang again).
        """
        from repro.experiments.runner import _run_one_timed

        lost: Dict[int, str] = {}
        executor = ProcessPoolExecutor(max_workers=workers)
        timed_out = False
        try:
            # Futures are keyed by submission *index*: keying by label would
            # collapse specs that share one, silently dropping submissions
            # and misattributing results.
            futures = {
                executor.submit(_run_one_timed, spec): index
                for index, spec in indexed_specs.items()
            }
            not_done = set(futures)
            while not_done:
                # FIRST_COMPLETED so each result reaches the store the moment
                # its worker finishes — not when the whole pool drains — and
                # so the watchdog measures "time since *anything* completed".
                done, not_done = wait(
                    not_done, timeout=spec_timeout, return_when=FIRST_COMPLETED
                )
                if not done:
                    timed_out = True
                    message = (
                        f"TimeoutError: no spec completed within "
                        f"spec_timeout={spec_timeout}s; "
                        f"{len(not_done)} spec(s) abandoned"
                    )
                    for future in not_done:
                        index = futures[future]
                        failures[index] = message
                        _store_error(store, specs[index], message)
                    break
                for future in done:
                    index = futures[future]
                    exc = future.exception()
                    if exc is None:
                        result, wall_time_s = future.result()
                        outcomes[index] = result
                        _store_result(store, result, wall_time_s)
                    elif isinstance(exc, BrokenExecutor):
                        # Pool collapse, not a fault of this spec's own code:
                        # candidate for resubmission on a fresh pool.
                        lost[index] = _format_failure(exc)
                    else:
                        failures[index] = _format_failure(exc)
                        _store_error(store, specs[index], failures[index])
        finally:
            if timed_out:
                # Do not wait for hung workers; reap what can be reaped.
                # (Capture the worker processes first: shutdown() drops the
                # executor's reference to them.)
                processes = list((getattr(executor, "_processes", None) or {}).values())
                executor.shutdown(wait=False, cancel_futures=True)
                for process in processes:
                    try:
                        process.terminate()
                    except Exception:  # noqa: BLE001 - best-effort reaping
                        pass
            else:
                executor.shutdown(wait=True)
        return lost


class BatchedBackend(ExecutionBackend):
    """Specs advanced in lock-step through shared decision machinery.

    Builds every spec's scenario/manager/config in this process, hands them
    to :class:`repro.sim.batched.BatchedEngine`, and reassembles the traces
    into an :class:`ExperimentBatch`.  Replicas whose complete inputs are
    equal by value (deterministic scenarios swept over seeds) share one
    simulation.
    """

    name = "batched"

    @staticmethod
    def _dedup_key(spec: ExperimentSpec, scenario) -> object:
        from repro.sim.batched import scenario_content_key

        content = scenario_content_key(scenario)
        if content is None:
            return None
        return (
            spec.manager,
            spec.platform,
            spec.use_op_cache,
            spec.policy,
            tuple(sorted(spec.policy_overrides.items())),
            tuple(sorted(spec.rtm.items())) if spec.rtm else None,
            tuple(sorted(spec.simulator.items())) if spec.simulator else None,
            # Spec-level fault plans override the scenario's own, so they are
            # part of replica identity: two specs differing only in [faults]
            # must never share one simulation.
            json.dumps(spec.faults, sort_keys=True) if spec.faults else None,
            content,
        )

    def execute(
        self,
        specs: Sequence[ExperimentSpec],
        workers: int = 1,
        store=None,
        spec_timeout: Optional[float] = None,
    ):
        from repro.experiments.runner import (
            ExperimentResult,
            build_fault_plan_from_spec,
            build_manager_from_spec,
            build_scenario_from_spec,
            build_simulator_config,
        )
        from repro.sim.batched import BatchedCase, BatchedEngine

        self._require_single_worker(workers)
        self._reject_duplicate_labels(specs)
        cases = []
        build_failures: Dict[str, str] = {}
        spec_by_label = {spec.label: spec for spec in specs}
        for spec in specs:
            try:
                scenario = build_scenario_from_spec(spec)
                cases.append(
                    BatchedCase(
                        label=spec.label,
                        scenario=scenario,
                        manager=build_manager_from_spec(spec),
                        config=build_simulator_config(spec),
                        fault_plan=build_fault_plan_from_spec(spec),
                        dedup_key=self._dedup_key(spec, scenario),
                    )
                )
            except Exception as exc:  # noqa: BLE001 - per-spec isolation
                build_failures[spec.label] = _format_failure(exc)

        def on_complete(label: str, trace) -> None:
            # Stream each replica to the store the stride it finishes.  Wall
            # time is not separable per spec inside the lock-step engine, so
            # the row stores NULL there.
            _store_result(store, ExperimentResult(spec=spec_by_label[label], trace=trace), None)

        traces, run_failures = BatchedEngine().run(
            cases, on_complete=None if store is None else on_complete
        )
        outcomes = {}
        for index, spec in enumerate(specs):
            if spec.label in traces:
                outcomes[index] = ExperimentResult(spec=spec, trace=traces[spec.label])
        for label, message in {**build_failures, **run_failures}.items():
            _store_error(store, spec_by_label[label], message)
        return _assemble(specs, outcomes, _index_failures(specs, build_failures, run_failures))


#: Named execution backends, enumerable like every other component axis.
EXECUTION_BACKEND_REGISTRY: Registry[ExecutionBackend] = Registry("execution backend")
EXECUTION_BACKEND_REGISTRY.register(
    SerialBackend.name,
    SerialBackend,
    summary="one spec after another in-process",
)
EXECUTION_BACKEND_REGISTRY.register(
    ProcessBackend.name,
    ProcessBackend,
    summary="fan specs out over a process pool (workers=N, crash-tolerant)",
    parallel=True,
)
EXECUTION_BACKEND_REGISTRY.register(
    BatchedBackend.name,
    BatchedBackend,
    summary="lock-step batched engine with shared decision stores (one core)",
)


def make_execution_backend(name: str) -> ExecutionBackend:
    """Instantiate a backend by registry name.

    Raises ``ValueError`` (listing the available names) for unknown backends.
    """
    if name not in EXECUTION_BACKEND_REGISTRY:
        raise ValueError(EXECUTION_BACKEND_REGISTRY.describe_unknown(name))
    return EXECUTION_BACKEND_REGISTRY[name]()
