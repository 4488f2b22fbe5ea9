"""Repository benchmark: one workload of the RTM simulator, end to end or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep --seed 3 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs untraced repetitions for half the time and traced ones
for the other half, and reports the per-layer metrics plus the tracing
overhead.  ``--smoke`` swaps in tiny inputs (used by the benchmark's own
tests).  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a human-readable report.  Exit status 0 means every output matched its
pinned digest and every deterministic count repeated exactly; 1 means a
check failed; 2 means the program source is missing.

Scratch files live in ``.perfbench/`` under the repository root and are
removed at exit, except the span file of a traced run
(``.perfbench/spans-<workload>.jsonl.gz``).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED = HERE / "pinned.json"

#: Counts that must repeat exactly between repetitions and between the
#: untraced and traced phases: later changes may cite them as evidence.
DETERMINISTIC = (
    "sim.jobs", "sim.events", "rtm.decide_calls", "fleet.migrations",
    "workloads.trace_write_records",
)

#: Repetitions made even when one alone outlasts the measuring time, so that
#: a median exists and decide latency has enough samples for its p99.
MIN_REPS = 3


def percentile_with_tail(samples, target: float = 0.99, tail: int = 10):
    """Nearest-rank ``target`` percentile, or the highest one with ``tail`` samples beyond.

    Returns ``(value, percentile_used, samples_beyond)``.  With ``tail`` or
    fewer samples no percentile has that many beyond it, and the maximum is
    returned with its true count beyond (zero).
    """
    ordered = sorted(samples)
    count = len(ordered)
    if count == 0:
        raise ValueError("no samples")
    rank = max(math.ceil(target * count - 1e-9), 1)
    if count - rank < tail:
        rank = count - tail if count > tail else count
    return ordered[rank - 1], 100.0 * rank / count, count - rank


def tally(reps, pinned_digest):
    """(attempted, failed) cases: a repetition whose digest misses the pin fails whole."""
    attempted = failed = 0
    for outcome in reps:
        attempted += outcome.cases
        failed += outcome.cases if outcome.digest != pinned_digest else outcome.errors
    return attempted, failed


class Bench:
    """Drives the repetitions of one workload and collects their measurements."""

    def __init__(self, workload, probes, scratch: Path) -> None:
        self.workload = workload
        self.probes = probes
        self.scratch = scratch
        self.reps = []  # dicts: setup_s, run_s, outcome, counts, decide_s, phase

    def repetition(self, phase: str, recorder=None) -> dict:
        from workloads import Outcome

        workdir = self.scratch / f"rep{len(self.reps)}"
        workdir.mkdir(parents=True)
        gc.collect()
        self.probes.reset()
        self.probes.active = True
        root = recorder.open(recorder.intern(spans.ROOT_SPAN)) if recorder is not None else None
        clock = time.perf_counter
        start = ran = clock()
        try:
            ready = self.workload.setup(workdir)
            ran = clock()
            result, error = self.workload.execute(ready), None
        except Exception as exc:  # noqa: BLE001 - an errored case is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            done = clock()
            if root is not None:
                recorder.close(root)
            self.probes.active = False
        decide_s, events = self.probes.decide_s, self.probes.events
        self.probes.reset()
        if error is None:
            outcome = self.workload.outcome(result)
        else:
            print(f"perfbench: {self.workload.name} failed: {error}", file=sys.stderr)
            outcome = Outcome(digest="error", cases=1, errors=1)
        shutil.rmtree(workdir, ignore_errors=True)
        rep = {
            "phase": phase,
            "setup_s": ran - start,
            "run_s": done - ran,
            "outcome": outcome,
            "counts": {
                "sim.jobs": outcome.jobs,
                "sim.events": events,
                "rtm.decide_calls": len(decide_s),
                "fleet.migrations": outcome.migrations,
                "workloads.trace_write_records": outcome.trace_records,
            },
            "decide_s": decide_s,
        }
        if recorder is not None:
            rep["root_s"] = (recorder.end[root] - recorder.start[root]) / 1e9
            rep["layers"] = recorder.layer_totals(root)
            rep["span_counts"] = dict(recorder.counts)
            recorder.counts.clear()
        self.reps.append(rep)
        return rep

    def measure(self, phase: str, seconds: float, min_reps: int, recorder=None) -> list:
        measured, reps = 0.0, []
        while measured < seconds or len(reps) < min_reps:
            rep = self.repetition(phase, recorder)
            reps.append(rep)
            measured += rep["run_s"]
        return reps


def end_to_end(untraced, import_s: float) -> tuple:
    """End-to-end metrics plus report notes from the untraced repetitions."""
    outcome = untraced[0]["outcome"]
    # The i-th decide call is the same decision in every repetition (the
    # call count is checked to repeat), so its median over repetitions
    # filters out host slowdowns that hit one repetition only.
    samples = [statistics.median(call) for call in zip(*(rep["decide_s"] for rep in untraced))]
    rates = [rep["outcome"].jobs / rep["run_s"] for rep in untraced]
    metrics = {
        "setup_s": (import_s + statistics.median(rep["setup_s"] for rep in untraced), "s"),
        "sim_jobs_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = ["repetition seconds " + " ".join(f"{rep['run_s']:.3f}" for rep in untraced)]
    if samples:
        high, used, beyond = percentile_with_tail(samples)
        metrics["decide_ms_p50"] = (1e3 * statistics.median(samples), "ms")
        metrics["decide_ms_p99"] = (1e3 * high, "ms")
        notes.append(
            f"decide samples n={len(samples)} calls x {len(untraced)} repetitions "
            f"(per-call median); decide_ms_p99 is p{used:.2f} with {beyond} calls beyond it"
        )
    else:
        notes.append("decide samples n=0: this workload made no RuntimeManager.decide call")
    completed = max(outcome.completed, 1)
    metrics["violation_rate"] = (outcome.bad_jobs / max(outcome.jobs, 1), "ratio")
    metrics["energy_mj_per_job"] = (outcome.energy_mj / completed, "mJ")
    metrics["accuracy_pct"] = (outcome.accuracy_sum / completed, "%")
    return metrics, notes


def per_layer(untraced, traced, tolerance: float) -> tuple:
    """Per-layer metrics from the traced repetitions; returns (metrics, problems)."""
    problems = []

    def median(values):
        return statistics.median(values) if values else 0.0

    def self_s(name):
        return median([rep["layers"][0].get(name, 0.0) for rep in traced])

    def calls(name):
        return traced[0]["layers"][1].get(name, 0)

    outcome, counts = traced[0]["outcome"], traced[0]["counts"]
    recorded = traced[0]["span_counts"].get("rtm.recorded_calls", 0)
    replayed = calls("rtm.replay")
    lookups = outcome.cache_hits + outcome.cache_misses
    unattributed = [rep["layers"][0].get(spans.ROOT_SPAN, 0.0) / rep["root_s"] for rep in traced]
    overhead = median([r["run_s"] for r in traced]) / median([r["run_s"] for r in untraced]) - 1
    metrics = {
        "experiments.self_s": (self_s("experiments"), "s"),
        "experiments.build_s": (self_s("experiments.build"), "s"),
        "experiments.build_calls": (calls("experiments.build"), "count"),
        "experiments.errors": (outcome.errors, "count"),
        "workloads.build_scenario_s": (self_s("workloads.build_scenario"), "s"),
        "workloads.build_scenario_calls": (calls("workloads.build_scenario"), "count"),
        "workloads.trace_write_s": (self_s("workloads.trace_write"), "s"),
        "workloads.trace_write_records": (counts["workloads.trace_write_records"], "count"),
        "workloads.trace_read_s": (self_s("workloads.trace_read"), "s"),
        "dnn.train_s": (self_s("dnn.train"), "s"),
        "dnn.train_calls": (calls("dnn.train"), "count"),
        "sim.self_s": (self_s("sim"), "s"),
        "sim.events": (counts["sim.events"], "count"),
        "sim.events_per_job": (counts["sim.events"] / max(counts["sim.jobs"], 1), "ratio"),
        "sim.jobs": (counts["sim.jobs"], "count"),
        "sim.decisions": (outcome.decisions, "count"),
        "sim.fingerprint_s": (self_s("sim.fingerprint"), "s"),
        "rtm.decide_s": (self_s("rtm.decide"), "s"),
        "rtm.decide_calls": (counts["rtm.decide_calls"], "count"),
        "rtm.replay_s": (self_s("rtm.replay"), "s"),
        "rtm.decision_memo_hit_ratio": (replayed / max(replayed + recorded, 1), "ratio"),
        "rtm.pareto_s": (self_s("rtm.pareto"), "s"),
        "rtm.op_cache_hit_rate": (outcome.cache_hits / max(lookups, 1), "ratio"),
        "perfmodel.cost_grid_s": (self_s("perfmodel.cost_grid"), "s"),
        "perfmodel.cost_grid_calls": (calls("perfmodel.cost_grid"), "count"),
        "perfmodel.cost_s": (self_s("perfmodel.cost"), "s"),
        "perfmodel.cost_calls": (calls("perfmodel.cost"), "count"),
        "platforms.thermal_step_s": (self_s("platforms.thermal_step"), "s"),
        "platforms.thermal_step_calls": (calls("platforms.thermal_step"), "count"),
        "platforms.power_s": (self_s("platforms.power"), "s"),
        "store.put_result_s": (self_s("store.put_result"), "s"),
        "store.put_result_calls": (calls("store.put_result"), "count"),
        "store.close_wait_s": (self_s("store.close_wait"), "s"),
        "fleet.build_s": (self_s("fleet.build"), "s"),
        "fleet.place_s": (self_s("fleet.place"), "s"),
        "fleet.place_calls": (calls("fleet.place"), "count"),
        "fleet.self_s": (self_s("fleet"), "s"),
        "fleet.migrations": (counts["fleet.migrations"], "count"),
        "bench.traced_root_s": (median([rep["root_s"] for rep in traced]), "s"),
        "bench.unattributed_frac": (max(unattributed), "ratio"),
        "trace_overhead_frac": (overhead, "ratio"),
    }
    if max(unattributed) > tolerance:
        problems.append(
            f"per-layer self times miss the traced root by {max(unattributed):.4f} "
            f"(tolerance {tolerance})"
        )
    return metrics, problems


def consistency_problems(reps) -> list:
    """Digest and deterministic-count drift between repetitions (and phases)."""
    problems = []
    first = reps[0]
    for rep in reps[1:]:
        if rep["outcome"].digest != first["outcome"].digest:
            problems.append(
                f"digest drift: {first['phase']} {first['outcome'].digest} vs "
                f"{rep['phase']} {rep['outcome'].digest}"
            )
        for name in DETERMINISTIC:
            if rep["counts"][name] != first["counts"][name]:
                problems.append(
                    f"count drift: {name} {first['phase']}={first['counts'][name]} "
                    f"{rep['phase']}={rep['counts'][name]}"
                )
    return problems


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one repetition")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    pinned = json.loads(PINNED.read_text())
    mode = "smoke" if args.smoke else "full"
    pinned_digest = pinned["digests"][mode][args.workload]
    min_reps = 1 if args.smoke else MIN_REPS

    probes = spans.Probes()
    spans.install_probes(probes)
    workload = workloads.WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    import_s = time.perf_counter() - started

    scratch = ROOT / ".perfbench" / f"run-{os.getpid()}"
    bench = Bench(workload, probes, scratch)
    recorder = None
    try:
        if args.trace:
            untraced = bench.measure("untraced", args.seconds / 2, 1)
            recorder = spans.SpanRecorder()
            spans.install_spans(recorder)
            traced = bench.measure("traced", args.seconds / 2, 1, recorder)
        else:
            untraced, traced = bench.measure("untraced", args.seconds, min_reps), []
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted, failed = tally([rep["outcome"] for rep in bench.reps], pinned_digest)
    problems = consistency_problems(bench.reps)
    if untraced[0]["outcome"].digest != pinned_digest:
        problems.append(
            f"digest {untraced[0]['outcome'].digest} differs from pinned {pinned_digest}"
        )
    if args.trace:
        metrics, layer_problems = per_layer(untraced, traced, pinned["self_time_tolerance"])
        problems += layer_problems
        spans_path = ROOT / ".perfbench" / f"spans-{args.workload}.jsonl.gz"
        recorder.write(spans_path)
        notes = [f"traced repetitions {len(traced)}; {len(recorder)} spans in {spans_path}"]
    else:
        metrics, notes = end_to_end(untraced, import_s)

    print(f"workload {args.workload} seed {args.seed} mode {mode} trace {args.trace}")
    print(f"digest {untraced[0]['outcome'].digest} (pinned {pinned_digest})")
    print("counts " + " ".join(f"{k}={v}" for k, v in untraced[0]["counts"].items()))
    print(f"failed_frac {failed / max(attempted, 1):.6f} ({failed} of {attempted} cases)")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>16.6f} {unit}")
    for problem in problems:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    correct = not problems and failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
