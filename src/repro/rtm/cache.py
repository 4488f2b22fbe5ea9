"""Caching operating-point engine.

Every decision epoch the runtime manager (and, for the single-application
query, the Section IV case study) enumerates the (configuration x cluster x
cores x frequency) grid and prices every point through the energy model.
The grid is a pure function of a small set of inputs — the trained dynamic
DNN, the platform topology, the knob restrictions and the temperature used
for leakage — so long scenarios and sweeps re-derive the same lists hundreds
of times.  This module memoises that work.

Three layers cooperate:

* :class:`~repro.rtm.operating_points.OperatingPointSpace` memoises
  individual priced points (one energy-model evaluation each) for the
  lifetime of the space.
* :class:`OperatingPointCache` memoises the *spaces* themselves (so the
  point memo survives across decision epochs), the assembled point lists of
  each enumeration query, and the Pareto fronts derived from them.
* The runtime manager quantises the enumeration temperature to a bucket
  (:func:`temperature_bucket_c`) so that small thermal drift between epochs
  does not defeat the cache.  Bucketing is applied whether or not a cache is
  attached, which is what makes cached and uncached runs bit-for-bit
  identical.

Keys are *complete*: every input that can change an enumeration result —
model identities (see the ``cache_key`` methods on the perfmodel classes and
:class:`~repro.dnn.training.TrainedDynamicDNN`), SoC topology including
per-cluster online-core counts, knob restrictions and the temperature bucket
— is part of the key.  Explicit invalidation on structural events (cores
offlined, an application unmapped, a thermal-bucket crossing) is therefore a
staleness/memory bound, not a correctness requirement; a stale entry can
never be returned for a fresh key.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dnn.training import TrainedDynamicDNN
from repro.perfmodel.energy import EnergyModel
from repro.platforms.soc import Soc
from repro.rtm.operating_points import (
    OperatingPoint,
    OperatingPointSpace,
    OperatingPointTable,
    pareto_front,
)

__all__ = [
    "DECISION_OBJECTIVES",
    "DECISION_MAXIMISE",
    "DEFAULT_TEMPERATURE_BUCKET_C",
    "temperature_bucket_c",
    "model_cache_key",
    "soc_topology_key",
    "CacheStats",
    "OperatingPointCache",
]

#: Metrics minimised when pre-filtering decision candidates to a Pareto front.
#: Together with :data:`DECISION_MAXIMISE` these cover every metric any
#: registered requirement or selection policy reads, so dominated points can
#: never be selected and dropping them preserves behaviour.
DECISION_OBJECTIVES: Tuple[str, ...] = ("latency_ms", "energy_mj", "power_mw")

#: Metrics maximised when pre-filtering decision candidates.
DECISION_MAXIMISE: Tuple[str, ...] = ("accuracy_percent", "confidence_percent")

#: Default width of the leakage-temperature buckets used by the decision path.
DEFAULT_TEMPERATURE_BUCKET_C = 5.0


def temperature_bucket_c(
    temperature_c: float, width_c: float = DEFAULT_TEMPERATURE_BUCKET_C
) -> float:
    """Quantise a temperature to the lower edge of its bucket.

    The runtime manager prices operating points at the bucketed temperature
    (leakage changes little across a few degrees), so consecutive decision
    epochs share cache entries until the SoC actually crosses a bucket edge.
    """
    if not math.isfinite(width_c) or width_c <= 0:
        raise ValueError("width_c must be positive and finite")
    return round(math.floor(temperature_c / width_c) * width_c, 6)


def model_cache_key(model: object) -> tuple:
    """Stable identity of a model object for cache keys.

    Uses the object's ``cache_key()`` method when it has one (the perfmodel
    estimators and :class:`TrainedDynamicDNN` do); otherwise falls back to
    the instance identity, which is always safe — it just scopes cache
    entries to that one object.
    """
    method = getattr(model, "cache_key", None)
    if callable(method):
        return method()
    return (type(model).__qualname__, id(model))


def soc_topology_key(soc: Soc) -> tuple:
    """Stable key of everything about a platform that affects enumeration.

    Covers the cluster set, core counts and types, the OPP tables
    (frequency/voltage pairs), and the power and performance parameters that
    the latency/power models read.  Per-cluster *online*-core counts are
    deliberately part of the per-query key instead (they change at runtime).

    Delegates to :meth:`Soc.topology_key`, which assembles the tuple once at
    first use: the old per-call construction went through
    ``dataclasses.astuple`` (which deep-copies every field) tens of thousands
    of times per simulation and dominated the cached decision path.
    """
    return soc.topology_key()


@dataclass
class CacheStats:
    """Hit/miss statistics of one :class:`OperatingPointCache`.

    ``hits``/``misses`` count enumeration-list lookups; ``pareto_hits`` /
    ``pareto_misses`` count Pareto-front lookups.  ``invalidations`` is keyed
    by the structural reason that triggered each flush.  The energy-model
    evaluations everything above avoids are counted per space
    (:attr:`OperatingPointCache.points_priced` sums them).
    """

    hits: int = 0
    misses: int = 0
    pareto_hits: int = 0
    pareto_misses: int = 0
    evictions: int = 0
    spaces_built: int = 0
    invalidations: Dict[str, int] = field(default_factory=dict)

    @property
    def lookups(self) -> int:
        """Total enumeration-list lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of enumeration lookups served from the cache."""
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def total_invalidations(self) -> int:
        """Structural flushes across all reasons."""
        return sum(self.invalidations.values())

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view for traces, summaries and the CLI."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "pareto_hits": self.pareto_hits,
            "pareto_misses": self.pareto_misses,
            "evictions": self.evictions,
            "spaces_built": self.spaces_built,
            "invalidations": dict(self.invalidations),
        }


class OperatingPointCache:
    """Memoises operating-point spaces, enumeration lists and Pareto fronts.

    Parameters
    ----------
    max_entries:
        Bound on the memoised enumeration lists and Pareto fronts (each
        counted separately, LRU eviction).  Spaces are not evicted: there is
        one per (application model, platform, knob-limit) combination, a
        small set in any realistic scenario.
    """

    def __init__(self, max_entries: int = 1024) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._spaces: Dict[tuple, OperatingPointSpace] = {}
        self._points: "OrderedDict[tuple, List[OperatingPoint]]" = OrderedDict()
        self._pareto: "OrderedDict[tuple, List[OperatingPoint]]" = OrderedDict()
        # Columnar twins of the two memos above: assembled tables per
        # enumeration query and Pareto-front tables (index views) per key.
        self._tables: "OrderedDict[tuple, OperatingPointTable]" = OrderedDict()
        self._pareto_tables: "OrderedDict[tuple, OperatingPointTable]" = OrderedDict()

    # ---------------------------------------------------------------- spaces

    def space_key(
        self,
        trained: TrainedDynamicDNN,
        soc: Soc,
        energy_model: EnergyModel,
        clusters: Optional[Sequence[str]] = None,
        max_cores_per_cluster: int = 4,
    ) -> tuple:
        """Identity of one operating-point space."""
        return (
            model_cache_key(trained),
            soc_topology_key(soc),
            model_cache_key(energy_model),
            tuple(clusters) if clusters is not None else None,
            max_cores_per_cluster,
        )

    def space_for(
        self,
        trained: TrainedDynamicDNN,
        soc: Soc,
        energy_model: EnergyModel,
        clusters: Optional[Sequence[str]] = None,
        max_cores_per_cluster: int = 4,
    ) -> OperatingPointSpace:
        """A memoised space whose per-point pricing survives across epochs.

        The space holds live references to its platform and models, so a key
        hit with *different instances* (a manager reused across simulations)
        rebuilds the space rather than pricing against the stale objects.
        """
        key = self.space_key(trained, soc, energy_model, clusters, max_cores_per_cluster)
        space = self._spaces.get(key)
        if (
            space is None
            or space.trained is not trained
            or space.soc is not soc
            or space.energy_model is not energy_model
        ):
            if space is not None:
                # Key equality with different live instances means the key
                # could not tell them apart (e.g. an id()-based fallback whose
                # id was recycled).  The list/front memos were derived from
                # the old instances under these same keys, so they must go
                # with the space.
                self.invalidate("space_rebuilt")
            space = OperatingPointSpace(
                trained=trained,
                soc=soc,
                energy_model=energy_model,
                clusters=clusters,
                max_cores_per_cluster=max_cores_per_cluster,
            )
            self._spaces[key] = space
            self.stats.spaces_built += 1
        return space

    # ----------------------------------------------------------- enumeration

    def query_key(
        self,
        space: OperatingPointSpace,
        clusters: Optional[Sequence[str]] = None,
        configurations: Optional[Sequence[float]] = None,
        core_counts: Optional[Sequence[int]] = None,
        frequencies: Optional[dict] = None,
        temperature_c: float = 45.0,
    ) -> tuple:
        """Complete key of one enumeration query.

        Includes the online-core count of every requested cluster, because
        the power model charges idle power for online cores; offlining cores
        therefore changes keys (and prices) rather than silently reusing
        stale entries.
        """
        cluster_names = list(clusters) if clusters is not None else list(space.cluster_names)
        online = tuple(
            (name, len(space.soc.cluster(name).online_cores))
            for name in cluster_names
            if space.soc.has_cluster(name)
        )
        frequency_key: Optional[tuple] = None
        if frequencies is not None:
            frequency_key = tuple(
                (name, tuple(frequencies[name]))
                for name in sorted(frequencies)
                if name in cluster_names
            )
        return (
            self.space_key(
                space.trained,
                space.soc,
                space.energy_model,
                None,
                space.max_cores_per_cluster,
            ),
            tuple(cluster_names),
            online,
            tuple(configurations) if configurations is not None else None,
            tuple(core_counts) if core_counts is not None else None,
            frequency_key,
            temperature_c,
        )

    def enumerate(
        self,
        space: OperatingPointSpace,
        clusters: Optional[Sequence[str]] = None,
        configurations: Optional[Sequence[float]] = None,
        core_counts: Optional[Sequence[int]] = None,
        frequencies: Optional[dict] = None,
        temperature_c: float = 45.0,
    ) -> List[OperatingPoint]:
        """Memoised :meth:`OperatingPointSpace.enumerate`.

        Returns a fresh list on every call (entries are shared, points are
        immutable), identical to what a direct enumeration would produce.
        """
        key = self.query_key(
            space, clusters, configurations, core_counts, frequencies, temperature_c
        )
        cached = self._points.get(key)
        if cached is not None:
            self._points.move_to_end(key)
            self.stats.hits += 1
            return list(cached)
        self.stats.misses += 1
        points = space.enumerate(
            clusters=clusters,
            configurations=configurations,
            core_counts=core_counts,
            frequencies=frequencies,
            temperature_c=temperature_c,
        )
        self._store(self._points, key, points)
        return list(points)

    def enumerate_table(
        self,
        space: OperatingPointSpace,
        clusters: Optional[Sequence[str]] = None,
        configurations: Optional[Sequence[float]] = None,
        core_counts: Optional[Sequence[int]] = None,
        frequencies: Optional[dict] = None,
        temperature_c: float = 45.0,
    ) -> OperatingPointTable:
        """Memoised :meth:`OperatingPointSpace.enumerate_table`.

        Tables are immutable (read-only columns), so the memoised instance is
        returned directly — no defensive copy is needed.  Counts into the
        same ``hits``/``misses`` statistics as the point-list lookups.
        """
        key = self.query_key(
            space, clusters, configurations, core_counts, frequencies, temperature_c
        )
        cached = self._tables.get(key)
        if cached is not None:
            self._tables.move_to_end(key)
            self.stats.hits += 1
            return cached
        self.stats.misses += 1
        table = space.enumerate_table(
            clusters=clusters,
            configurations=configurations,
            core_counts=core_counts,
            frequencies=frequencies,
            temperature_c=temperature_c,
        )
        self._store_table(self._tables, key, table)
        return table

    def pareto_table_for(
        self,
        key: tuple,
        table: OperatingPointTable,
        objectives: Sequence[str] = DECISION_OBJECTIVES,
        maximise: Sequence[str] = DECISION_MAXIMISE,
    ) -> OperatingPointTable:
        """Memoised Pareto front of a table identified by ``key``.

        ``key`` must determine ``table`` (callers pass the query key — or a
        tuple of query keys for a multi-cluster union — of the enumeration
        that produced it).  Counts into the ``pareto_hits``/``pareto_misses``
        statistics alongside the point-list fronts.
        """
        full_key = (key, tuple(objectives), tuple(maximise))
        cached = self._pareto_tables.get(full_key)
        if cached is not None:
            self._pareto_tables.move_to_end(full_key)
            self.stats.pareto_hits += 1
            return cached
        self.stats.pareto_misses += 1
        front = table.pareto(objectives=objectives, maximise=maximise)
        self._store_table(self._pareto_tables, full_key, front)
        return front

    def pareto_for(
        self,
        key: tuple,
        points: Sequence[OperatingPoint],
        objectives: Sequence[str] = DECISION_OBJECTIVES,
        maximise: Sequence[str] = DECISION_MAXIMISE,
    ) -> List[OperatingPoint]:
        """Memoised Pareto front of a point list identified by ``key``.

        ``key`` must determine ``points`` (callers pass the query key — or a
        tuple of query keys for a multi-cluster union — of the enumeration
        that produced them).
        """
        full_key = (key, tuple(objectives), tuple(maximise))
        cached = self._pareto.get(full_key)
        if cached is not None:
            self._pareto.move_to_end(full_key)
            self.stats.pareto_hits += 1
            return list(cached)
        self.stats.pareto_misses += 1
        front = pareto_front(points, objectives=objectives, maximise=maximise)
        self._store(self._pareto, full_key, front)
        return list(front)

    def _store(
        self,
        table: "OrderedDict[tuple, List[OperatingPoint]]",
        key: tuple,
        value: Sequence[OperatingPoint],
    ) -> None:
        table[key] = list(value)
        while len(table) > self.max_entries:
            table.popitem(last=False)
            self.stats.evictions += 1

    def _store_table(
        self,
        store: "OrderedDict[tuple, OperatingPointTable]",
        key: tuple,
        value: OperatingPointTable,
    ) -> None:
        store[key] = value
        while len(store) > self.max_entries:
            store.popitem(last=False)
            self.stats.evictions += 1

    # ----------------------------------------------------------- maintenance

    def invalidate(self, reason: str) -> None:
        """Flush the enumeration and Pareto memos after a structural event.

        Keys are complete, so this is a staleness/memory bound rather than a
        correctness requirement; the per-point pricing inside the memoised
        spaces is pure and survives (points are functions of their key
        alone), so re-warming after a flush costs list assembly, not
        energy-model evaluations.
        """
        self._points.clear()
        self._pareto.clear()
        self._tables.clear()
        self._pareto_tables.clear()
        self.stats.invalidations[reason] = self.stats.invalidations.get(reason, 0) + 1

    def clear(self) -> None:
        """Drop everything, including the memoised spaces and statistics."""
        self._spaces.clear()
        self._points.clear()
        self._pareto.clear()
        self._tables.clear()
        self._pareto_tables.clear()
        self.stats = CacheStats()

    @property
    def entry_count(self) -> int:
        """Currently memoised enumeration lists, tables and Pareto fronts."""
        return (
            len(self._points)
            + len(self._pareto)
            + len(self._tables)
            + len(self._pareto_tables)
        )

    @property
    def points_priced(self) -> int:
        """Energy-model evaluations performed by the memoised spaces."""
        return sum(space.points_priced for space in self._spaces.values())
