"""Declarative, serialisable fleet specifications.

A :class:`FleetSpec` is the single description of one fleet run: which fleet
scenario (by registry name), under which placement policy, with which device
mix (platform preset → count table, overriding the scenario's default mix),
which per-device runtime manager, and the orchestrator tunables (epoch
length, migration latency, eviction thresholds).  Like
:class:`~repro.experiments.spec.ExperimentSpec`, fleet specs are frozen
dataclasses that round-trip losslessly through plain dicts, JSON and TOML,
and are content-addressed by :meth:`FleetSpec.fleet_id`.

File format
-----------
A fleet spec file is TOML (or JSON) with the fields at the top level::

    scenario = "fleet_rush_hour_regional"
    policy = "least_loaded"
    seed = 0

    [devices]
    odroid_xu3 = 12
    jetson_nano = 8

A batch file holds several fleets as ``[[fleet]]`` tables; load with
:meth:`FleetSpec.load` (single) or :func:`load_fleet_specs` (always a list),
write with :meth:`FleetSpec.save` or :func:`dump_fleet_specs`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.experiments.spec import SpecError, _normalise, _toml_key, _toml_value
from repro.ioutils import atomic_write_text

__all__ = [
    "FleetSpec",
    "FleetSpecError",
    "load_fleet_specs",
    "dump_fleet_specs",
    "fleet_specs_to_toml",
]


class FleetSpecError(SpecError):
    """A fleet spec that cannot be parsed or validated."""


@dataclass(frozen=True)
class FleetSpec:
    """One fully described, serialisable fleet run.

    Attributes
    ----------
    scenario:
        Fleet scenario registry name (see ``repro-experiments fleet
        scenarios list``).
    policy:
        Placement policy registry name (see ``repro-experiments fleet
        policies list``).
    manager:
        Per-device manager registry name; every device of the fleet runs
        this manager.
    seed:
        Seed forwarded to the fleet scenario builder (workload stream,
        churn times, straggler selection).
    name:
        Optional case label; defaults to ``scenario/policy/seedN``.
    devices:
        Platform preset → device count table overriding the scenario's
        default mix.  Empty means "use the scenario's mix".  The canonical
        device order is sorted by preset name then index, so two specs with
        the same table in different insertion orders are the same fleet.
    epoch_ms:
        Orchestrator epoch: telemetry sampling and rebalance period.
    migration_latency_ms:
        Delay between an app's eviction on the source device and its
        arrival on the target (state transfer / model reload penalty).
    max_migrations_per_epoch:
        Fleet-wide cap on rebalance migrations started per epoch.
    evict_violation_threshold:
        Recent (per-epoch) violation rate above which a device is
        considered overloaded and sheds one app per epoch.
    policy_params:
        Extra keyword arguments for the placement policy (e.g.
        ``{"seed": 7}`` for ``random``).
    use_op_cache:
        Whether cache-bearing per-device managers keep their
        operating-point cache (shared fleet-wide under the batched
        backend).
    """

    scenario: str
    policy: str = "least_loaded"
    manager: str = "rtm"
    seed: int = 0
    name: Optional[str] = None
    devices: Dict[str, int] = field(default_factory=dict)
    epoch_ms: float = 1000.0
    migration_latency_ms: float = 250.0
    max_migrations_per_epoch: int = 8
    evict_violation_threshold: float = 0.5
    policy_params: Dict[str, object] = field(default_factory=dict)
    use_op_cache: bool = True

    def __post_init__(self) -> None:
        for key in ("devices", "policy_params"):
            value = getattr(self, key)
            if isinstance(value, dict):
                object.__setattr__(self, key, _normalise(value))

    # ------------------------------------------------------------- identity

    @property
    def label(self) -> str:
        """Case label used to key results: explicit name or a derived one."""
        return self.name or f"{self.scenario}/{self.policy}/seed{self.seed}"

    def fleet_id(self) -> str:
        """Stable 16-hex-digit content hash of the fleet spec.

        Canonical-JSON based like
        :meth:`~repro.experiments.spec.ExperimentSpec.spec_id`, so it is
        identical across processes, machines and device-table insertion
        orders.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    # -------------------------------------------------------- serialisation

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form: every field, JSON/TOML-ready."""
        result: Dict[str, object] = {}
        for spec_field in dataclasses.fields(self):
            value = getattr(self, spec_field.name)
            if isinstance(value, dict):
                # Sort device tables so the canonical JSON (and therefore
                # fleet_id) is independent of insertion order.
                value = {key: value[key] for key in sorted(value)}
            result[spec_field.name] = value
        return result

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FleetSpec":
        """Build a fleet spec from a plain dict, rejecting unknown keys."""
        if not isinstance(data, dict):
            raise FleetSpecError(
                f"a fleet spec must be a table/dict, got {type(data).__name__}"
            )
        known = {spec_field.name for spec_field in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise FleetSpecError(
                f"unknown fleet spec keys {unknown}; known keys: {sorted(known)}"
            )
        try:
            spec = cls(**data)  # type: ignore[arg-type]
        except TypeError as error:
            raise FleetSpecError(str(error)) from None
        spec._check_shapes()
        return spec

    def _check_shapes(self) -> None:
        for key in ("scenario", "policy", "manager"):
            if not isinstance(getattr(self, key), str):
                raise FleetSpecError(f"fleet spec field {key!r} must be a string")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise FleetSpecError("fleet spec field 'seed' must be an integer")
        if self.name is not None and not isinstance(self.name, str):
            raise FleetSpecError("fleet spec field 'name' must be a string")
        for key in ("devices", "policy_params"):
            if not isinstance(getattr(self, key), dict):
                raise FleetSpecError(f"fleet spec field {key!r} must be a table/dict")
        for preset, count in self.devices.items():
            if not isinstance(count, int) or isinstance(count, bool) or count <= 0:
                raise FleetSpecError(
                    f"devices[{preset!r}] must be a positive integer, got {count!r}"
                )
        for key in ("epoch_ms", "migration_latency_ms"):
            value = getattr(self, key)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise FleetSpecError(f"fleet spec field {key!r} must be a number")
            if not math.isfinite(value):
                raise FleetSpecError(f"fleet spec field {key!r} must be finite")
        if self.epoch_ms <= 0:
            raise FleetSpecError("fleet spec field 'epoch_ms' must be positive")
        if self.migration_latency_ms < 0:
            raise FleetSpecError(
                "fleet spec field 'migration_latency_ms' must be non-negative"
            )
        if (
            not isinstance(self.max_migrations_per_epoch, int)
            or isinstance(self.max_migrations_per_epoch, bool)
            or self.max_migrations_per_epoch < 0
        ):
            raise FleetSpecError(
                "fleet spec field 'max_migrations_per_epoch' must be a "
                "non-negative integer"
            )
        if (
            not isinstance(self.evict_violation_threshold, (int, float))
            or isinstance(self.evict_violation_threshold, bool)
            or not 0.0 < float(self.evict_violation_threshold) <= 1.0
        ):
            raise FleetSpecError(
                "fleet spec field 'evict_violation_threshold' must be in (0, 1]"
            )
        if not isinstance(self.use_op_cache, bool):
            raise FleetSpecError("fleet spec field 'use_op_cache' must be a boolean")

    def validate(self) -> "FleetSpec":
        """Check every registry-referencing field against its registry.

        Returns the spec so calls chain; raises :class:`FleetSpecError`
        with the registry's suggestion-bearing message otherwise.
        """
        from repro.experiments.managers import MANAGER_REGISTRY
        from repro.fleet.policies import FLEET_POLICY_REGISTRY
        from repro.fleet.scenarios import FLEET_SCENARIO_REGISTRY
        from repro.platforms.presets import PLATFORM_REGISTRY

        self._check_shapes()
        for registry, value in (
            (FLEET_SCENARIO_REGISTRY, self.scenario),
            (FLEET_POLICY_REGISTRY, self.policy),
            (MANAGER_REGISTRY, self.manager),
        ):
            if value not in registry:
                raise FleetSpecError(registry.describe_unknown(value))
        for preset in self.devices:
            if preset not in PLATFORM_REGISTRY:
                raise FleetSpecError(PLATFORM_REGISTRY.describe_unknown(preset))
        return self

    # ---------------------------------------------------------------- files

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FleetSpec":
        """Load a single fleet spec from a TOML or JSON file."""
        specs = load_fleet_specs(path)
        if len(specs) != 1:
            raise FleetSpecError(
                f"{path} holds {len(specs)} fleets; use load_fleet_specs() for batches"
            )
        return specs[0]

    def save(self, path: Union[str, Path]) -> None:
        """Write the spec to a file (TOML unless the suffix is ``.json``)."""
        path = Path(path)
        if path.suffix.lower() == ".json":
            atomic_write_text(path, json.dumps(self.to_dict(), indent=2) + "\n")
        else:
            atomic_write_text(path, self.to_toml())

    def to_toml(self) -> str:
        """TOML form of the spec (a single top-level fleet)."""
        return _fleet_toml(self, header=None)


# ----------------------------------------------------------- batch handling


def load_fleet_specs(path: Union[str, Path]) -> List[FleetSpec]:
    """Load one or many fleet specs from a TOML or JSON file.

    A file holding a single fleet yields a one-element list; a batch file
    (``[[fleet]]`` tables in TOML, ``{"fleet": [...]}`` or a top-level list
    in JSON) yields them all in file order.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise FleetSpecError(f"cannot read fleet spec file {path}: {error}") from None
    if path.suffix.lower() == ".json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise FleetSpecError(f"invalid JSON in {path}: {error}") from None
    else:
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10: tomli is the stdlib backport
            import tomli as tomllib

        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as error:
            raise FleetSpecError(f"invalid TOML in {path}: {error}") from None
    if isinstance(data, list):
        documents = data
    elif isinstance(data, dict) and "fleet" in data:
        extra = sorted(set(data) - {"fleet"})
        if extra:
            raise FleetSpecError(
                f"batch fleet spec file {path} mixes [[fleet]] tables with "
                f"top-level keys {extra}"
            )
        documents = data["fleet"]
        if not isinstance(documents, list):
            raise FleetSpecError(f"'fleet' in {path} must be an array of tables")
    else:
        documents = [data]
    if not documents:
        raise FleetSpecError(f"fleet spec file {path} holds no fleets")
    return [FleetSpec.from_dict(document) for document in documents]


def dump_fleet_specs(specs: Sequence[FleetSpec], path: Union[str, Path]) -> None:
    """Write fleet specs to a file (TOML unless the suffix is ``.json``)."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        documents = [spec.to_dict() for spec in specs]
        payload = documents[0] if len(documents) == 1 else {"fleet": documents}
        atomic_write_text(path, json.dumps(payload, indent=2) + "\n")
    else:
        atomic_write_text(path, fleet_specs_to_toml(specs))


def fleet_specs_to_toml(specs: Sequence[FleetSpec]) -> str:
    """TOML text for one fleet spec (top-level) or several (``[[fleet]]``)."""
    if len(specs) == 1:
        return specs[0].to_toml()
    return "\n".join(_fleet_toml(spec, header="fleet") for spec in specs)


def _fleet_toml(spec: FleetSpec, header: Optional[str]) -> str:
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
