"""Runtime scenarios, including the paper's Fig 2 timeline.

A scenario is a platform plus a set of applications with arrival / departure
times and scheduled requirement changes.  The central one is
:func:`fig2_scenario`, which reproduces the paper's motivating timeline:

* ``t = 0 s``  — a single DNN runs, mapped to the NPU with a CPU core for
  pre-processing.
* ``t = 5 s``  — a second DNN with a tighter latency requirement arrives; it
  takes the NPU, pushing DNN 1 to the GPU where it must be dynamically
  compressed.
* ``t = 15 s`` — an AR/VR application claims the GPU; DNN 1 moves to the big
  CPU cluster, the SoC heats up past its thermal limit, and DNN 1 must be
  compressed further and confined to fewer cores.
* ``t = 25 s`` — the user relaxes DNN 2's accuracy requirement; both DNNs can
  be co-scaled onto the NPU.

The scenario is expressed with explicit events so that both the RTM-driven
simulation and the baselines replay exactly the same resource timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional

from repro.dnn.training import IncrementalTrainer, TrainedDynamicDNN
from repro.dnn.zoo import make_dynamic_cifar_dnn
from repro.platforms.core import CoreType
from repro.platforms.presets import build_preset
from repro.platforms.soc import Soc
from repro.registry import Registry
from repro.workloads.requirements import Requirements
from repro.workloads.tasks import (
    Application,
    make_arvr_application,
    make_background_application,
    make_dnn_application,
)

__all__ = [
    "ScenarioEventKind",
    "ScenarioEvent",
    "Scenario",
    "fig2_scenario",
    "single_dnn_scenario",
    "multi_dnn_scenario",
    "thermal_stress_scenario",
    "register_scenario",
    "build_scenario",
    "accepted_scenario_params",
    "scenario_summaries",
    "scenario_is_seeded",
    "SEEDED_SCENARIOS",
    "SCENARIO_REGISTRY",
    "SCENARIO_BUILDERS",
]


class ScenarioEventKind(str, Enum):
    """Kinds of scheduled scenario event."""

    APP_ARRIVAL = "app_arrival"
    APP_DEPARTURE = "app_departure"
    REQUIREMENT_CHANGE = "requirement_change"


@dataclass(frozen=True)
class ScenarioEvent:
    """A scheduled change in the scenario.

    Attributes
    ----------
    time_ms:
        When the event fires.
    kind:
        What happens.
    app_id:
        The application affected.
    new_requirements:
        For ``REQUIREMENT_CHANGE`` events, the replacement requirements.
    """

    time_ms: float
    kind: ScenarioEventKind
    app_id: str
    new_requirements: Optional[Requirements] = None


@dataclass
class Scenario:
    """A platform, a set of applications and a timeline of events.

    ``fault_plan`` optionally attaches a
    :class:`~repro.sim.faults.FaultPlan`; the simulator injects it by
    default, which is how the ``chaos_*`` registry scenarios are built.
    """

    name: str
    platform_name: str
    applications: List[Application]
    duration_ms: float
    extra_events: List[ScenarioEvent] = field(default_factory=list)
    description: str = ""
    fault_plan: Optional[object] = None

    def __post_init__(self) -> None:
        if self.duration_ms <= 0:
            raise ValueError("duration_ms must be positive")
        ids = [app.app_id for app in self.applications]
        if len(ids) != len(set(ids)):
            raise ValueError(f"duplicate application ids in scenario {self.name!r}: {ids}")

    def build_platform(self) -> Soc:
        """Instantiate a fresh platform model for this scenario."""
        return build_preset(self.platform_name)

    def application(self, app_id: str) -> Application:
        """Look up an application by id."""
        for app in self.applications:
            if app.app_id == app_id:
                return app
        raise KeyError(f"scenario {self.name!r} has no application {app_id!r}")

    def events(self) -> List[ScenarioEvent]:
        """All events of the scenario (arrivals, departures, and extras), sorted."""
        events: List[ScenarioEvent] = []
        for app in self.applications:
            events.append(
                ScenarioEvent(app.arrival_time_ms, ScenarioEventKind.APP_ARRIVAL, app.app_id)
            )
            if app.departure_time_ms is not None:
                events.append(
                    ScenarioEvent(
                        app.departure_time_ms, ScenarioEventKind.APP_DEPARTURE, app.app_id
                    )
                )
        events.extend(self.extra_events)
        return sorted(events, key=lambda event: (event.time_ms, event.kind.value, event.app_id))

    @property
    def dnn_applications(self) -> List[Application]:
        """The DNN applications of the scenario."""
        return [app for app in self.applications if hasattr(app, "trained")]


def _default_trained(num_increments: int = 4) -> TrainedDynamicDNN:
    """Train (simulated) the case-study dynamic DNN."""
    return IncrementalTrainer().train(make_dynamic_cifar_dnn(num_increments))


def fig2_scenario(
    platform_name: str = "odroid_xu3",
    trained_factory: Optional[Callable[[], TrainedDynamicDNN]] = None,
) -> Scenario:
    """The paper's Fig 2 runtime timeline.

    The paper's illustration shows a flagship SoC with an NPU; our calibrated
    platform models are the boards the paper measures, so by default the
    scenario runs on the Odroid XU3 with the Mali GPU playing the role of the
    dedicated accelerator (the fastest, most efficient core the DNNs compete
    for).  The timeline and the resource-management pressure are the same:

    * ``t = 0 s``  — DNN 1 runs alone on the accelerator.
    * ``t = 5 s``  — DNN 2 (tighter latency, higher priority) arrives and
      claims the accelerator; DNN 1 must move to a CPU cluster and compress.
    * ``t = 15 s`` — an AR/VR application takes the accelerator; both DNNs now
      share the CPU clusters, the package heats up, and the RTM must throttle
      frequencies / compress configurations to stay inside the thermal limit.
    * ``t = 25 s`` — DNN 2's accuracy requirement is relaxed by the user, so
      it can shrink and return headroom to DNN 1.

    Parameters
    ----------
    platform_name:
        Platform preset to run on (default: the calibrated Odroid XU3; the
        Kirin 990-like and A13-like presets also work but their NPUs are fast
        enough that this small network causes little contention).
    trained_factory:
        Factory for the trained dynamic DNN used by both DNN applications;
        defaults to the four-increment case-study network.
    """
    factory = trained_factory or _default_trained
    trained_dnn1 = factory()
    trained_dnn2 = factory()

    # DNN 1: continuous vision task, moderate frame rate, energy constrained,
    # willing to trade accuracy when resources shrink.
    dnn1 = make_dnn_application(
        app_id="dnn1",
        trained=trained_dnn1,
        requirements=Requirements(
            target_fps=5.0,
            max_energy_mj=60.0,
            min_accuracy_percent=55.0,
            priority=3,
        ),
        arrival_time_ms=0.0,
    )
    # DNN 2: arrives at t=5s with a tighter execution-time requirement
    # ("higher requirements on the desired classification execution time").
    dnn2 = make_dnn_application(
        app_id="dnn2",
        trained=trained_dnn2,
        requirements=Requirements(
            target_fps=20.0,
            max_latency_ms=45.0,
            min_accuracy_percent=62.0,
            priority=6,
        ),
        arrival_time_ms=5000.0,
    )
    # AR/VR application arrives at t=15s and occupies the GPU/accelerator.
    arvr = make_arvr_application(
        app_id="arvr",
        target_fps=60.0,
        arrival_time_ms=15000.0,
        priority=8,
    )
    # At t=25s the user relaxes DNN 2's accuracy requirement (Fig 2d), which
    # lets the RTM shrink DNN 2 and return resources to DNN 1.
    requirement_change = ScenarioEvent(
        time_ms=25000.0,
        kind=ScenarioEventKind.REQUIREMENT_CHANGE,
        app_id="dnn2",
        new_requirements=Requirements(
            target_fps=20.0,
            max_latency_ms=45.0,
            min_accuracy_percent=56.0,
            priority=6,
        ),
    )
    return Scenario(
        name="fig2",
        platform_name=platform_name,
        applications=[dnn1, dnn2, arvr],
        duration_ms=40000.0,
        extra_events=[requirement_change],
        description=(
            "Fig 2 timeline: single DNN -> second DNN arrives (t=5s) -> AR/VR app "
            "takes the accelerator and the SoC heats up (t=15s) -> DNN2 accuracy "
            "requirement relaxed (t=25s)."
        ),
    )


def single_dnn_scenario(
    platform_name: str = "odroid_xu3",
    target_fps: float = 5.0,
    max_energy_mj: float = 100.0,
    min_accuracy_percent: float = 60.0,
    duration_ms: float = 10000.0,
) -> Scenario:
    """A single DNN running alone — the paper's case-study setting (Section IV)."""
    dnn = make_dnn_application(
        app_id="dnn1",
        trained=_default_trained(),
        requirements=Requirements(
            target_fps=target_fps,
            max_energy_mj=max_energy_mj,
            min_accuracy_percent=min_accuracy_percent,
            priority=3,
        ),
    )
    return Scenario(
        name="single_dnn",
        platform_name=platform_name,
        applications=[dnn],
        duration_ms=duration_ms,
        description="One DNN with latency/energy/accuracy requirements, no contention.",
    )


def multi_dnn_scenario(
    num_dnns: int = 3,
    platform_name: str = "odroid_xu3",
    duration_ms: float = 20000.0,
    stagger_ms: float = 3000.0,
) -> Scenario:
    """Several DNNs arriving one after another and competing for the clusters."""
    if num_dnns <= 0:
        raise ValueError("num_dnns must be positive")
    applications: List[Application] = []
    fps_ladder = [5.0, 10.0, 15.0, 20.0, 25.0]
    for index in range(num_dnns):
        applications.append(
            make_dnn_application(
                app_id=f"dnn{index + 1}",
                trained=_default_trained(),
                requirements=Requirements(
                    target_fps=fps_ladder[index % len(fps_ladder)],
                    min_accuracy_percent=56.0,
                    priority=index + 1,
                ),
                arrival_time_ms=index * stagger_ms,
            )
        )
    return Scenario(
        name=f"multi_dnn_{num_dnns}",
        platform_name=platform_name,
        applications=applications,
        duration_ms=duration_ms,
        description=f"{num_dnns} DNNs with staggered arrivals competing for clusters.",
    )


def thermal_stress_scenario(
    platform_name: str = "odroid_xu3",
    duration_ms: float = 30000.0,
) -> Scenario:
    """A DNN plus heavy CPU background load designed to push the SoC into throttling."""
    dnn = make_dnn_application(
        app_id="dnn1",
        trained=_default_trained(),
        requirements=Requirements(
            target_fps=8.0,
            min_accuracy_percent=56.0,
            priority=4,
        ),
    )
    background = make_background_application(
        app_id="stress",
        cores=4,
        core_type=CoreType.CPU_BIG,
        utilisation=0.95,
        arrival_time_ms=5000.0,
        min_frequency_mhz=1800.0,
    )
    return Scenario(
        name="thermal_stress",
        platform_name=platform_name,
        applications=[dnn, background],
        duration_ms=duration_ms,
        description="A DNN plus a hot background task that forces thermal throttling.",
    )


# ----------------------------------------------------------------- registry
#
# Named scenarios selectable from the CLI (``repro-experiments scenarios
# list`` / ``sweep --scenarios ...``) and from experiment specs
# (:mod:`repro.experiments`).  Every registered builder has the uniform
# signature ``builder(seed=0, platform_name="odroid_xu3") -> Scenario`` so
# that sweep cases can be described by (name, seed, platform) triples that
# cross process boundaries without pickling closures.  Builders that are
# deterministic by construction (the hand-written timelines above) simply
# ignore the seed.

#: Builders of named scenarios, keyed by registry name.  A mapping of
#: ``name -> builder`` with per-entry metadata (``seeded``).
SCENARIO_REGISTRY: Registry[Scenario] = Registry("scenario")

#: Registry names whose builder actually varies with ``seed``.  Deterministic
#: timelines (the paper's hand-written scenarios) are absent; sweeping them
#: across seeds would just repeat the identical simulation.  This is a
#: legacy public mirror of the registry's ``seeded`` metadata (the source of
#: truth read by :func:`scenario_is_seeded`), kept in sync by
#: :func:`register_scenario` — the only supported registration path.
SEEDED_SCENARIOS: set = set()


def register_scenario(
    name: str,
    seeded: bool = True,
    params: object = None,
) -> Callable[[Callable[..., Scenario]], Callable[..., Scenario]]:
    """Register a named scenario builder.

    Used as a decorator::

        @register_scenario("steady")
        def steady_scenario(seed=0, platform_name="odroid_xu3"):
            \"\"\"One-line workload description shown by ``scenarios list``.\"\"\"
            ...

    The builder must accept ``seed`` and ``platform_name`` keyword arguments
    (defaults included, so registry entries are also zero-argument callables)
    and carry a docstring whose first line describes the workload shape.
    Pass ``seeded=False`` for deterministic builders that ignore the seed, so
    sweeps know not to repeat them per seed.

    ``params`` declares which extra keyword arguments (an experiment spec's
    ``scenario_params``) the builder accepts — an iterable of names, or a
    zero-argument callable returning one (for sets that would require an
    import cycle at registration time).  When omitted, spec validation falls
    back to inspecting the builder's signature; builders that take ``**extra``
    should declare ``params`` explicitly so misspelled keys are rejected up
    front instead of failing inside a worker.
    """

    def decorator(builder: Callable[..., Scenario]) -> Callable[..., Scenario]:
        if not (builder.__doc__ or "").strip():
            raise ValueError(f"scenario {name!r} needs a docstring describing the workload")
        SCENARIO_REGISTRY.register(name, builder, seeded=seeded, params=params)
        if seeded:
            SEEDED_SCENARIOS.add(name)
        return builder

    return decorator


def _params_of(function: Callable[..., Scenario], exclude: tuple = ()) -> tuple:
    """Keyword-parameter names of a wrapped scenario function.

    Used to declare a registered wrapper's accepted ``scenario_params`` from
    the function it forwards to; ``exclude`` drops parameters a serialisable
    spec cannot carry (live objects such as ``trained_factory``).
    """
    import inspect

    signature = inspect.signature(function)
    return tuple(
        parameter.name
        for parameter in signature.parameters.values()
        if parameter.kind in (parameter.POSITIONAL_OR_KEYWORD, parameter.KEYWORD_ONLY)
        and parameter.name not in ("platform_name", *exclude)
    )


def _generator_param_names() -> tuple:
    """Accepted ``scenario_params`` of the generator-backed builders.

    A callable (evaluated lazily at validation time) because importing
    :class:`WorkloadGeneratorConfig` at registration time would cycle with
    :mod:`repro.workloads.generator`.
    """
    import dataclasses

    from repro.workloads.generator import WorkloadGeneratorConfig

    return tuple(field.name for field in dataclasses.fields(WorkloadGeneratorConfig))


def scenario_is_seeded(name: str) -> bool:
    """True when the named scenario's builder varies with the seed."""
    return bool(SCENARIO_REGISTRY.metadata(name).get("seeded"))


def accepted_scenario_params(name: str) -> Optional[set]:
    """Parameter names the named builder accepts, or ``None`` for any.

    Prefers the registry's ``params`` metadata (an iterable, or a callable
    evaluated lazily); falls back to the builder's signature, where a
    ``**kwargs`` builder without declared params accepts anything.  Shared by
    :func:`build_scenario` and :meth:`ExperimentSpec.validate
    <repro.experiments.spec.ExperimentSpec.validate>`, so direct builds and
    spec validation reject exactly the same misspelled parameters.
    """
    import inspect

    declared = SCENARIO_REGISTRY.metadata(name).get("params")
    if callable(declared):
        declared = declared()
    if declared is not None:
        return set(declared)  # type: ignore[arg-type]
    parameters = inspect.signature(SCENARIO_REGISTRY[name]).parameters.values()
    if any(p.kind is p.VAR_KEYWORD for p in parameters):
        return None
    return {
        p.name
        for p in parameters
        if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
    } - {"seed", "platform_name"}


def build_scenario(
    name: str, seed: int = 0, platform_name: str = "odroid_xu3", **params: object
) -> Scenario:
    """Build a registered scenario by name.

    Extra keyword arguments (an experiment spec's ``scenario_params``) are
    forwarded to the builder.  Raises ``KeyError`` (listing the available
    names, with a suggestion for near-misses) for unknown scenarios and
    ``ValueError`` for parameters the builder does not accept — a typo'd
    parameter must never silently vanish.  A non-zero ``seed`` passed to a
    deterministic (unseeded) scenario is equally silent-by-construction, so
    it raises a ``UserWarning``: the caller asked for variation the builder
    cannot deliver.
    """
    builder = SCENARIO_REGISTRY.get(name)
    accepted = accepted_scenario_params(name)
    if accepted is not None:
        unknown = sorted(set(params) - accepted)
        if unknown:
            raise ValueError(
                f"scenario {name!r} does not accept params {unknown}"
                + (f"; accepted: {sorted(accepted)}" if accepted else "")
            )
    if seed != 0 and not scenario_is_seeded(name):
        import warnings

        warnings.warn(
            f"scenario {name!r} is deterministic and ignores seed={seed}; "
            "the same scenario is built for every seed",
            UserWarning,
            stacklevel=2,
        )
    return builder(seed=seed, platform_name=platform_name, **params)


def scenario_summaries() -> Dict[str, str]:
    """Registry name -> first docstring line of the builder, sorted by name."""
    return {entry.name: entry.summary for entry in SCENARIO_REGISTRY.list()}


def _generator_scenario(
    name: str,
    seed: int,
    platform_name: str,
    **config_kwargs: object,
) -> Scenario:
    """Build a seeded random scenario from :class:`WorkloadGenerator` knobs.

    Imported lazily because :mod:`repro.workloads.generator` imports this
    module for the :class:`Scenario` type.
    """
    from repro.workloads.generator import WorkloadGenerator, WorkloadGeneratorConfig

    config = WorkloadGeneratorConfig(**config_kwargs)  # type: ignore[arg-type]
    generator = WorkloadGenerator(config, seed=seed)
    return generator.generate(platform_name=platform_name, name=f"{name}_seed{seed}")


# The deterministic wrappers forward extra keyword arguments (an experiment
# spec's ``scenario_params``) to the underlying scenario function, so a spec
# can customise e.g. ``duration_ms`` or ``target_fps`` without a new builder.


@register_scenario("fig2", seeded=False, params=_params_of(fig2_scenario, exclude=("trained_factory",)))
def _fig2_registered(
    seed: int = 0, platform_name: str = "odroid_xu3", **params: object
) -> Scenario:
    """The paper's Fig 2 timeline: DNN contention, AR/VR arrival, thermal pressure."""
    return fig2_scenario(platform_name=platform_name, **params)  # type: ignore[arg-type]


@register_scenario("single_dnn", seeded=False, params=_params_of(single_dnn_scenario))
def _single_dnn_registered(
    seed: int = 0, platform_name: str = "odroid_xu3", **params: object
) -> Scenario:
    """One DNN with latency/energy/accuracy requirements and no contention."""
    return single_dnn_scenario(platform_name=platform_name, **params)  # type: ignore[arg-type]


@register_scenario("multi_dnn", seeded=False, params=_params_of(multi_dnn_scenario))
def _multi_dnn_registered(
    seed: int = 0, platform_name: str = "odroid_xu3", **params: object
) -> Scenario:
    """Three DNNs with staggered arrivals competing for the clusters."""
    return multi_dnn_scenario(platform_name=platform_name, **params)  # type: ignore[arg-type]


@register_scenario("thermal_stress", seeded=False, params=_params_of(thermal_stress_scenario))
def _thermal_stress_registered(
    seed: int = 0, platform_name: str = "odroid_xu3", **params: object
) -> Scenario:
    """A DNN plus a hot background task that forces thermal throttling."""
    return thermal_stress_scenario(platform_name=platform_name, **params)  # type: ignore[arg-type]


# The generator-backed builders accept ``**params`` overriding their default
# :class:`WorkloadGeneratorConfig` knobs, so an experiment spec's
# ``scenario_params`` can e.g. shorten ``duration_ms`` or raise
# ``num_dnn_apps`` without registering a new scenario.


@register_scenario("steady", params=_generator_param_names)
def steady_scenario(
    seed: int = 0, platform_name: str = "odroid_xu3", **params: object
) -> Scenario:
    """Two well-spaced, low-rate DNNs with relaxed requirements: the easy baseline load.

    Arrivals are far apart (mean 6 s), frame rates low (3-8 fps) and accuracy
    floors generous, so a competent manager should hold a near-zero violation
    rate.  Useful as the control group of a sweep.
    """
    return _generator_scenario(
        "steady",
        seed,
        platform_name,
        **{
            "num_dnn_apps": 2,
            "num_background_apps": 0,
            "duration_ms": 20000.0,
            "mean_interarrival_ms": 6000.0,
            "fps_range": (3.0, 8.0),
            "accuracy_floor_range": (55.0, 60.0),
            "energy_budget_probability": 0.3,
            **params,
        },
    )


@register_scenario("bursty", params=_generator_param_names)
def bursty_scenario(
    seed: int = 0, platform_name: str = "odroid_xu3", **params: object
) -> Scenario:
    """Five DNNs arriving in a tight burst, stressing admission and remapping.

    Mean inter-arrival time is 0.4 s, so nearly the whole application set
    lands within the first seconds and the manager must remap and compress
    aggressively before the platform saturates.
    """
    return _generator_scenario(
        "bursty",
        seed,
        platform_name,
        **{
            "num_dnn_apps": 5,
            "num_background_apps": 1,
            "duration_ms": 20000.0,
            "mean_interarrival_ms": 400.0,
            "fps_range": (4.0, 15.0),
            **params,
        },
    )


@register_scenario("rush_hour")
def rush_hour_scenario(seed: int = 0, platform_name: str = "odroid_xu3") -> Scenario:
    """A quiet always-on DNN hit by a mid-scenario wave of arrivals that later departs.

    A navigation-style DNN runs for the whole 30 s.  At t=8-9.5 s three
    camera DNNs (frame rates drawn from the seed) and a CPU background task
    arrive, and all of them leave again at t=25 s — the manager must scale
    down through the rush and recover afterwards.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    trained = _default_trained()
    always_on = make_dnn_application(
        app_id="nav",
        trained=trained,
        requirements=Requirements(
            target_fps=4.0, min_accuracy_percent=56.0, max_energy_mj=120.0, priority=4
        ),
    )
    applications: List[Application] = [always_on]
    for index, arrival_ms in enumerate((8000.0, 8600.0, 9300.0)):
        applications.append(
            make_dnn_application(
                app_id=f"cam{index + 1}",
                trained=trained,
                requirements=Requirements(
                    target_fps=round(float(rng.uniform(8.0, 18.0)), 1),
                    min_accuracy_percent=round(float(rng.uniform(56.0, 64.0)), 1),
                    priority=int(rng.integers(4, 9)),
                ),
                arrival_time_ms=arrival_ms,
                departure_time_ms=25000.0,
            )
        )
    applications.append(
        make_background_application(
            app_id="bg_rush",
            cores=2,
            core_type=CoreType.CPU_LITTLE,
            utilisation=0.7,
            arrival_time_ms=9000.0,
            departure_time_ms=25000.0,
        )
    )
    return Scenario(
        name=f"rush_hour_seed{seed}",
        platform_name=platform_name,
        applications=applications,
        duration_ms=30000.0,
        description="Always-on DNN plus a t=8-25s wave of camera DNNs and background load.",
    )


@register_scenario("multi_app_contention", params=_generator_param_names)
def multi_app_contention_scenario(
    seed: int = 0, platform_name: str = "odroid_xu3", **params: object
) -> Scenario:
    """Four DNNs and three background tasks oversubscribing every cluster.

    Sustained contention from both managed (DNN) and unmanaged (background)
    load: the manager has to arbitrate between applications that it controls
    and tasks that simply take cores away.
    """
    return _generator_scenario(
        "multi_app_contention",
        seed,
        platform_name,
        **{
            "num_dnn_apps": 4,
            "num_background_apps": 3,
            "duration_ms": 30000.0,
            "mean_interarrival_ms": 2500.0,
            **params,
        },
    )


@register_scenario("accuracy_critical", params=_generator_param_names)
def accuracy_critical_scenario(
    seed: int = 0, platform_name: str = "odroid_xu3", **params: object
) -> Scenario:
    """Three DNNs with high accuracy floors (66-70 %) that forbid deep compression.

    The application knob is almost unusable — accuracy floors sit just under
    the full model's top-1 — so requirements must be met with mapping and
    DVFS alone.  Complements ``battery_saver``, where compression is the
    only way out.
    """
    return _generator_scenario(
        "accuracy_critical",
        seed,
        platform_name,
        **{
            "num_dnn_apps": 3,
            "num_background_apps": 0,
            "duration_ms": 20000.0,
            "mean_interarrival_ms": 3000.0,
            "fps_range": (2.0, 10.0),
            "accuracy_floor_range": (66.0, 70.0),
            "energy_budget_probability": 0.2,
            **params,
        },
    )


@register_scenario("battery_saver", params=_generator_param_names)
def battery_saver_scenario(
    seed: int = 0, platform_name: str = "odroid_xu3", **params: object
) -> Scenario:
    """Three low-rate DNNs that all carry tight per-inference energy budgets.

    Every application has an energy budget of 25-60 mJ — well under the full
    model's cost on the big cores — so the manager must compress models and
    prefer the efficient cluster to stay inside the budgets.
    """
    return _generator_scenario(
        "battery_saver",
        seed,
        platform_name,
        **{
            "num_dnn_apps": 3,
            "num_background_apps": 0,
            "duration_ms": 20000.0,
            "mean_interarrival_ms": 3000.0,
            "fps_range": (2.0, 6.0),
            "energy_budget_range_mj": (25.0, 60.0),
            "energy_budget_probability": 1.0,
            **params,
        },
    )


@register_scenario("mixed_criticality", params=_generator_param_names)
def mixed_criticality_scenario(
    seed: int = 0, platform_name: str = "odroid_xu3", **params: object
) -> Scenario:
    """Two best-effort DNNs plus one safety-critical DNN with a hard latency bound.

    The critical application (priority 9, 60 ms latency bound, 68 % accuracy
    floor) must stay unaffected while the seeded best-effort pair absorbs
    whatever resources are left.
    """
    from repro.workloads.generator import WorkloadGenerator, WorkloadGeneratorConfig

    trained = _default_trained()
    config = WorkloadGeneratorConfig(
        **{  # type: ignore[arg-type]
            "num_dnn_apps": 2,
            "num_background_apps": 1,
            "duration_ms": 25000.0,
            "mean_interarrival_ms": 4000.0,
            "fps_range": (3.0, 12.0),
            **params,
        }
    )
    generated = WorkloadGenerator(config, seed=seed, trained=trained).generate(
        platform_name=platform_name
    )
    critical = make_dnn_application(
        app_id="critical",
        trained=trained,
        requirements=Requirements(
            target_fps=15.0,
            max_latency_ms=60.0,
            min_accuracy_percent=68.0,
            priority=9,
        ),
    )
    return Scenario(
        name=f"mixed_criticality_seed{seed}",
        platform_name=platform_name,
        applications=[critical, *generated.applications],
        duration_ms=config.duration_ms,
        description="A hard-requirement critical DNN sharing the SoC with best-effort load.",
    )


@register_scenario("overload", params=_generator_param_names)
def overload_scenario(
    seed: int = 0, platform_name: str = "odroid_xu3", **params: object
) -> Scenario:
    """Six high-rate DNNs plus background load demanding more than the SoC can serve.

    Aggregate demand exceeds platform capacity by design; the interesting
    question is how gracefully a manager degrades (violation rate and
    delivered accuracy under overload), not whether it meets everything.
    """
    return _generator_scenario(
        "overload",
        seed,
        platform_name,
        **{
            "num_dnn_apps": 6,
            "num_background_apps": 2,
            "duration_ms": 20000.0,
            "mean_interarrival_ms": 1500.0,
            "fps_range": (12.0, 30.0),
            **params,
        },
    )


#: Backwards-compatible alias: scenario builders by name (all entries are
#: zero-argument callables; new code should use :func:`build_scenario`).
SCENARIO_BUILDERS = SCENARIO_REGISTRY
