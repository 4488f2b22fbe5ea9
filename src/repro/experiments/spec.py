"""Declarative, serialisable experiment specifications.

An :class:`ExperimentSpec` is the single description of one experiment run:
which scenario (by registry name, plus builder parameters), on which platform
preset, under which manager (with optional policy and
:class:`~repro.rtm.manager.RTMConfig` overrides), with which
:class:`~repro.sim.engine.SimulatorConfig` tunables, at which seed.  Specs
are frozen dataclasses that round-trip losslessly through plain dicts, JSON
and TOML, so a sweep can be sharded across processes and machines and
replayed bit-identically from a committed file.

The content hash :meth:`ExperimentSpec.spec_id` makes results addressable:
two specs with the same id describe the same experiment, whatever process,
machine or session computed the id.

File format
-----------
A spec file is TOML (or JSON) with the spec's fields at the top level::

    scenario = "rush_hour"
    manager = "rtm"
    platform = "odroid_xu3"
    seed = 3

    [rtm]
    enable_dvfs = false

    [simulator]
    decision_interval_ms = 250.0

A batch file holds several experiments as an array of tables::

    [[experiment]]
    scenario = "steady"
    manager = "rtm"

    [[experiment]]
    scenario = "steady"
    manager = "governor_only"

Load with :meth:`ExperimentSpec.load` (single spec) or :func:`load_specs`
(always a list), write with :meth:`ExperimentSpec.save` or
:func:`dump_specs`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.ioutils import atomic_write_text

__all__ = [
    "ExperimentSpec",
    "SpecError",
    "load_specs",
    "dump_specs",
    "specs_to_toml",
]


class SpecError(ValueError):
    """An experiment spec that cannot be parsed or validated."""


def _normalise(value: object) -> object:
    """Recursively convert tuples to lists (the JSON/TOML-canonical form)."""
    if isinstance(value, dict):
        return {key: _normalise(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_normalise(item) for item in value]
    return value


@dataclass(frozen=True)
class ExperimentSpec:
    """One fully described, serialisable experiment.

    Attributes
    ----------
    scenario:
        Scenario registry name (see ``repro-experiments scenarios list``).
    manager:
        Manager registry name (see ``repro-experiments managers list``).
    platform:
        Platform preset name (see ``repro-experiments platforms list``).
    seed:
        Seed forwarded to the scenario builder.
    name:
        Optional case label; defaults to ``scenario/manager/seedN``.
    policy:
        Optional selection-policy registry name overriding the manager's
        default policy (configurable managers only).
    policy_overrides:
        Per-application policy overrides, ``app_id -> policy name``
        (configurable managers only).
    scenario_params:
        Extra keyword arguments forwarded to the scenario builder.
    rtm:
        :class:`~repro.rtm.manager.RTMConfig` field overrides (configurable
        managers only), e.g. ``{"enable_dvfs": False}``.
    simulator:
        :class:`~repro.sim.engine.SimulatorConfig` field overrides shared by
        the whole run.
    use_op_cache:
        Whether the manager keeps its operating-point cache.  Cached and
        uncached runs produce identical traces; the flag exists for parity
        tests and benchmarking.
    faults:
        Optional :class:`~repro.sim.faults.FaultPlan` in dict form (the
        ``FaultPlan.to_dict()`` shape), injected on top of whatever plan the
        scenario itself carries.  Content-hashed into :meth:`spec_id`; an
        empty table is omitted from :meth:`to_dict`, so fault-free spec ids
        are identical to those minted before fault injection existed.
    """

    scenario: str
    manager: str = "rtm"
    platform: str = "odroid_xu3"
    seed: int = 0
    name: Optional[str] = None
    policy: Optional[str] = None
    policy_overrides: Dict[str, str] = field(default_factory=dict)
    scenario_params: Dict[str, object] = field(default_factory=dict)
    rtm: Dict[str, object] = field(default_factory=dict)
    simulator: Dict[str, object] = field(default_factory=dict)
    use_op_cache: bool = True
    faults: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Normalise override tables to their JSON/TOML-canonical form (tuples
        # become lists) at construction, so a spec built with tuple values
        # compares equal to its file round-trip and to_dict() needs no copy
        # logic of its own.
        for key in ("policy_overrides", "scenario_params", "rtm", "simulator", "faults"):
            value = getattr(self, key)
            if isinstance(value, dict):
                object.__setattr__(self, key, _normalise(value))

    # ------------------------------------------------------------- identity

    @property
    def label(self) -> str:
        """Case label used to key results: explicit name or a derived one."""
        return self.name or f"{self.scenario}/{self.manager}/seed{self.seed}"

    def spec_id(self) -> str:
        """Stable 16-hex-digit content hash of the spec.

        Computed from the canonical JSON form of :meth:`to_dict`, so it is
        identical across processes, machines and Python hash seeds; the
        ``name`` label is included because two same-content specs with
        different labels are distinct cases of a batch.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    # -------------------------------------------------------- serialisation

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form: every field, JSON/TOML-ready.

        An empty ``faults`` table is omitted entirely (``from_dict`` restores
        the default), keeping the spec ids of every fault-free spec identical
        to those minted before the ``faults`` field existed.
        """
        result: Dict[str, object] = {}
        for spec_field in dataclasses.fields(self):
            value = getattr(self, spec_field.name)
            if spec_field.name == "faults" and not value:
                continue
            if isinstance(value, dict):
                value = dict(value)
            result[spec_field.name] = value
        return result

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ExperimentSpec":
        """Build a spec from a plain dict, rejecting unknown keys.

        ``from_dict(spec.to_dict()) == spec`` holds for every spec.  TOML has
        no null, so an absent ``name``/``policy`` key means ``None``.
        """
        if not isinstance(data, dict):
            raise SpecError(f"an experiment spec must be a table/dict, got {type(data).__name__}")
        known = {spec_field.name for spec_field in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecError(
                f"unknown experiment spec keys {unknown}; known keys: {sorted(known)}"
            )
        try:
            spec = cls(**data)  # type: ignore[arg-type]
        except TypeError as error:
            raise SpecError(str(error)) from None
        spec._check_shapes()
        return spec

    def _check_shapes(self) -> None:
        """Structural validation (types of fields), independent of registries."""
        for key, expected in (("scenario", str), ("manager", str), ("platform", str)):
            if not isinstance(getattr(self, key), expected):
                raise SpecError(f"spec field {key!r} must be a string")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise SpecError("spec field 'seed' must be an integer")
        if self.name is not None and not isinstance(self.name, str):
            raise SpecError("spec field 'name' must be a string")
        if self.policy is not None and not isinstance(self.policy, str):
            raise SpecError("spec field 'policy' must be a string")
        if not isinstance(self.use_op_cache, bool):
            raise SpecError("spec field 'use_op_cache' must be a boolean")
        for key in ("policy_overrides", "scenario_params", "rtm", "simulator", "faults"):
            if not isinstance(getattr(self, key), dict):
                raise SpecError(f"spec field {key!r} must be a table/dict")
        for app_id, policy in self.policy_overrides.items():
            if not isinstance(policy, str):
                raise SpecError(
                    f"policy_overrides[{app_id!r}] must be a policy name string"
                )

    def validate(self) -> "ExperimentSpec":
        """Check every reference against the live registries.

        Verifies the scenario, manager, platform and policy names exist and
        that ``rtm``/``simulator`` overrides name real config fields; returns
        the spec so calls chain.  Raises :class:`SpecError` with the
        registry's suggestion-bearing message otherwise.
        """
        from repro.experiments.managers import MANAGER_REGISTRY
        from repro.platforms.presets import PLATFORM_REGISTRY
        from repro.rtm.manager import RTMConfig
        from repro.rtm.policies import POLICY_REGISTRY
        from repro.sim.engine import SimulatorConfig
        from repro.workloads.scenarios import SCENARIO_REGISTRY, accepted_scenario_params

        for registry, value in (
            (SCENARIO_REGISTRY, self.scenario),
            (MANAGER_REGISTRY, self.manager),
            (PLATFORM_REGISTRY, self.platform),
        ):
            if value not in registry:
                raise SpecError(registry.describe_unknown(value))
        if self.scenario_params:
            accepted = accepted_scenario_params(self.scenario)
            if accepted is not None:
                unknown = sorted(set(self.scenario_params) - accepted)
                if unknown:
                    raise SpecError(
                        f"scenario {self.scenario!r} does not accept "
                        f"scenario_params {unknown}"
                        + (f"; accepted: {sorted(accepted)}" if accepted else "")
                    )
        policy_names = [self.policy, *self.policy_overrides.values()]
        for policy_name in policy_names:
            if policy_name is not None and policy_name not in POLICY_REGISTRY:
                raise SpecError(POLICY_REGISTRY.describe_unknown(policy_name))
        manager_meta = MANAGER_REGISTRY.metadata(self.manager)
        if (self.policy or self.policy_overrides or self.rtm) and not manager_meta.get(
            "configurable"
        ):
            raise SpecError(
                f"manager {self.manager!r} is not configurable: it accepts no "
                "policy/policy_overrides/rtm overrides"
            )
        if self.faults:
            from repro.sim.faults import FaultPlan, FaultPlanError

            try:
                FaultPlan.from_dict(self.faults)
            except (FaultPlanError, ValueError) as error:
                raise SpecError(f"invalid faults table: {error}") from None
        sections = {"rtm": (RTMConfig, self.rtm), "simulator": (SimulatorConfig, self.simulator)}
        defaults = {
            key: {config_field.name: config_field.default for config_field in dataclasses.fields(cls)}
            for key, (cls, _) in sections.items()
        }
        for key, (config_cls, overrides) in sections.items():
            unknown = sorted(set(overrides) - set(defaults[key]))
            if unknown:
                # A knob of the other section (the decision epoch is the
                # simulator's, not the RTM's) is named where it belongs.
                elsewhere = [
                    f"{other}.{name}" for name in unknown for other in defaults
                    if name in defaults[other]
                ]
                raise SpecError(
                    f"unknown {key} override keys {unknown}; "
                    f"{config_cls.__name__} fields: {sorted(defaults[key])}"
                    + (f"; did you mean {', '.join(elsewhere)}?" if elsewhere else "")
                )
            for field_name, value in overrides.items():
                self._check_override_type(key, field_name, value, defaults[key][field_name])
        return self

    @staticmethod
    def _check_override_type(key: str, field_name: str, value: object, default: object) -> None:
        """Reject override values whose type contradicts the config field.

        Catches the silent failure mode where e.g. the *string* ``"false"``
        lands in a boolean knob and runs the opposite experiment: booleans
        must be booleans, numbers must be numbers (ints are fine for float
        fields, bools are not).
        """
        if isinstance(default, bool):
            valid = isinstance(value, bool)
        elif isinstance(default, float):
            valid = isinstance(value, (int, float)) and not isinstance(value, bool)
        elif isinstance(default, int):
            valid = isinstance(value, int) and not isinstance(value, bool)
        else:
            valid = True
        if not valid:
            raise SpecError(
                f"{key} override {field_name!r} must be a "
                f"{type(default).__name__}, got {value!r}"
            )

    # ---------------------------------------------------------------- files

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ExperimentSpec":
        """Load a single spec from a TOML or JSON file.

        Raises :class:`SpecError` when the file holds a batch (use
        :func:`load_specs` for files that may hold either).
        """
        specs = load_specs(path)
        if len(specs) != 1:
            raise SpecError(
                f"{path} holds {len(specs)} experiments; use load_specs() for batches"
            )
        return specs[0]

    def save(self, path: Union[str, Path]) -> None:
        """Write the spec to a file (TOML unless the suffix is ``.json``).

        The write is atomic (same-directory temp file + rename), so a crash
        mid-save can never truncate a previously-good spec file.
        """
        path = Path(path)
        if path.suffix.lower() == ".json":
            atomic_write_text(path, json.dumps(self.to_dict(), indent=2) + "\n")
        else:
            atomic_write_text(path, self.to_toml())

    def to_toml(self) -> str:
        """TOML form of the spec (a single top-level experiment)."""
        return _spec_toml(self, header=None)


# ----------------------------------------------------------- batch handling


def load_specs(path: Union[str, Path]) -> List[ExperimentSpec]:
    """Load one or many specs from a TOML or JSON file.

    A file holding a single experiment yields a one-element list; a batch
    file (``[[experiment]]`` tables in TOML, ``{"experiment": [...]}`` or a
    top-level array in JSON) yields them in file order.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise SpecError(f"cannot read spec file {path}: {error}") from None
    if path.suffix.lower() == ".json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise SpecError(f"invalid JSON in {path}: {error}") from None
    else:
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10: tomli is the stdlib backport
            import tomli as tomllib

        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as error:
            raise SpecError(f"invalid TOML in {path}: {error}") from None
    if isinstance(data, list):
        documents = data
    elif isinstance(data, dict) and "experiment" in data:
        extra = sorted(set(data) - {"experiment"})
        if extra:
            raise SpecError(
                f"batch spec file {path} mixes [[experiment]] tables with "
                f"top-level keys {extra}"
            )
        documents = data["experiment"]
        if not isinstance(documents, list):
            raise SpecError(f"'experiment' in {path} must be an array of tables")
    else:
        documents = [data]
    if not documents:
        raise SpecError(f"spec file {path} holds no experiments")
    return [ExperimentSpec.from_dict(document) for document in documents]


def dump_specs(specs: Sequence[ExperimentSpec], path: Union[str, Path]) -> None:
    """Write specs to a file (TOML unless the suffix is ``.json``).

    One spec is written as a single-experiment file; several as a
    ``[[experiment]]`` batch.  Either form round-trips through
    :func:`load_specs`.  Writes are atomic (temp file + rename).
    """
    path = Path(path)
    if path.suffix.lower() == ".json":
        payload = (
            specs[0].to_dict() if len(specs) == 1 else [spec.to_dict() for spec in specs]
        )
        atomic_write_text(path, json.dumps(payload, indent=2) + "\n")
    else:
        atomic_write_text(path, specs_to_toml(specs))


def specs_to_toml(specs: Sequence[ExperimentSpec]) -> str:
    """TOML text for one spec (top-level) or several (``[[experiment]]``)."""
    if len(specs) == 1:
        return specs[0].to_toml()
    return "\n".join(_spec_toml(spec, header="experiment") for spec in specs)


# ------------------------------------------------------------- TOML writing
#
# The standard library reads TOML (tomllib) but does not write it; specs only
# need scalars, lists of scalars and one level of sub-tables, so a small
# emitter is simpler than depending on an external writer.


# TOML basic strings give \b \t \n \f \r dedicated escapes; every other
# control character (U+0000-U+001F, U+007F) must be a \uXXXX escape — emitted
# raw they make the document unparseable, so a spec with e.g. a newline in a
# string param would fail its own save -> load round-trip.
_TOML_SHORT_ESCAPES = {
    "\\": "\\\\",
    '"': '\\"',
    "\b": "\\b",
    "\t": "\\t",
    "\n": "\\n",
    "\f": "\\f",
    "\r": "\\r",
}


def _toml_escape_char(char: str) -> str:
    short = _TOML_SHORT_ESCAPES.get(char)
    if short is not None:
        return short
    if ord(char) < 0x20 or ord(char) == 0x7F:
        return f"\\u{ord(char):04X}"
    return char


def _toml_value(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        escaped = "".join(_toml_escape_char(char) for char in value)
        return f'"{escaped}"'
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_value(item) for item in value) + "]"
    if isinstance(value, dict):
        # Inline table, used for structured sub-values such as the fault
        # events of a [faults] table.  tomllib parses these natively.
        pairs = ", ".join(
            f"{_toml_key(key)} = {_toml_value(item)}" for key, item in value.items()
        )
        return "{" + pairs + "}"
    raise SpecError(f"cannot serialise {type(value).__name__} value {value!r} to TOML")


def _toml_key(key: str) -> str:
    if key and all(ch.isalnum() or ch in "-_" for ch in key):
        return key
    return _toml_value(key)


def _spec_toml(spec: ExperimentSpec, header: Optional[str]) -> str:
    data = spec.to_dict()
    lines: List[str] = []
    if header:
        lines.append(f"[[{header}]]")
    prefix = f"{header}." if header else ""
    tables: List[str] = []
    for key, value in data.items():
        if value is None or value == {}:
            continue  # TOML has no null; defaults are restored on load
        if isinstance(value, dict):
            tables.append(f"[{prefix}{key}]" if header else f"[{key}]")
            tables.extend(
                f"{_toml_key(sub_key)} = {_toml_value(sub_value)}"
                for sub_key, sub_value in value.items()
            )
            tables.append("")
        else:
            lines.append(f"{_toml_key(key)} = {_toml_value(value)}")
    lines.append("")
    if tables:
        lines.extend(tables)
    return "\n".join(lines).rstrip("\n") + "\n"
