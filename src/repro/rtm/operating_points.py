"""Operating-point space of a DNN application on a heterogeneous platform.

Section IV of the paper combines three knobs — the dynamic DNN configuration,
task mapping and DVFS — into a space of operating points in the (energy,
power, time, accuracy) space (Fig 4a).  This module enumerates that space for
a given application and platform, and provides the Pareto and budget-filter
operations the runtime-management policies are built from.

Enumeration is columnar: each requested (configurations x cores x
frequencies) block of a cluster is priced in a handful of vectorised
numpy operations (see :meth:`EnergyModel.cost_grid`) and materialised as an
:class:`OperatingPointTable` — a struct-of-arrays view with one numpy column
per metric and knob.  The decision path (Pareto pre-filtering, requirement
checking, policy scoring) operates on those columns directly instead of
looping over :class:`OperatingPoint` objects; the object form is materialised
lazily for callers that want it.  Blocks are memoised for the lifetime of the
space, keyed by everything that determines them (cluster, online cores,
temperature, requested axes), and
:class:`~repro.rtm.cache.OperatingPointCache` keeps spaces alive across
decision epochs so the grid is priced once per scenario, not once per epoch.

The vectorised pricing replays the exact float-operation order of the
per-point path it replaced, so tables and points are bit-identical to the
scalar enumeration — the golden-trace fingerprints in
``tests/test_golden_traces.py`` lock this in.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.dnn.training import TrainedDynamicDNN
from repro.perfmodel.energy import EnergyModel
from repro.platforms.cluster import Cluster
from repro.platforms.soc import Soc

__all__ = [
    "OperatingPoint",
    "OperatingPointTable",
    "OperatingPointSpace",
    "pareto_front",
    "pareto_mask",
]


@dataclass(frozen=True)
class OperatingPoint:
    """One (configuration, cluster, cores, frequency) choice and its predicted cost.

    Attributes
    ----------
    cluster_name:
        Cluster the inference runs on.
    frequency_mhz:
        Cluster frequency.
    cores:
        Cores used on the cluster.
    configuration:
        Dynamic-DNN width fraction.
    latency_ms / power_mw / energy_mj:
        Predicted platform-dependent metrics (Table I columns).
    accuracy_percent / confidence_percent:
        Predicted platform-independent metrics.
    """

    cluster_name: str
    frequency_mhz: float
    cores: int
    configuration: float
    latency_ms: float
    power_mw: float
    energy_mj: float
    accuracy_percent: float
    confidence_percent: float

    @property
    def fps(self) -> float:
        """Throughput if inferences run back to back."""
        return 1000.0 / self.latency_ms

    def describe(self) -> str:
        """One-line human-readable description."""
        return (
            f"{round(self.configuration * 100)}% model on {self.cluster_name} "
            f"x{self.cores} @ {self.frequency_mhz:.0f} MHz: "
            f"{self.latency_ms:.1f} ms, {self.energy_mj:.1f} mJ, "
            f"{self.power_mw:.0f} mW, {self.accuracy_percent:.1f}% top-1"
        )


#: Metric columns of an :class:`OperatingPointTable` (all float64).
_METRIC_COLUMNS = (
    "latency_ms",
    "power_mw",
    "energy_mj",
    "accuracy_percent",
    "confidence_percent",
    "fps",
    "frequency_mhz",
    "configuration",
)


class OperatingPointTable:
    """Struct-of-arrays view of a set of operating points.

    One numpy column per metric and knob, aligned by row; ``cluster_index``
    indexes into ``cluster_names``.  Tables are immutable (columns are marked
    read-only) and cheap to slice: restricted queries and Pareto fronts are
    served as index views (:meth:`take`) that share no per-row Python
    objects.  ``points`` / ``point`` materialise the classic
    :class:`OperatingPoint` dataclasses lazily for callers that want the
    object form; the floats are bit-identical either way.
    """

    __slots__ = (
        "latency_ms",
        "power_mw",
        "energy_mj",
        "accuracy_percent",
        "confidence_percent",
        "fps",
        "frequency_mhz",
        "configuration",
        "cores",
        "cluster_index",
        "cluster_names",
        "_points",
    )

    def __init__(
        self,
        *,
        cluster_names: Tuple[str, ...],
        cluster_index: np.ndarray,
        cores: np.ndarray,
        latency_ms: np.ndarray,
        power_mw: np.ndarray,
        energy_mj: np.ndarray,
        accuracy_percent: np.ndarray,
        confidence_percent: np.ndarray,
        fps: np.ndarray,
        frequency_mhz: np.ndarray,
        configuration: np.ndarray,
    ) -> None:
        self.cluster_names = tuple(cluster_names)
        self.cluster_index = self._freeze(np.asarray(cluster_index, dtype=np.int64))
        self.cores = self._freeze(np.asarray(cores, dtype=np.int64))
        self.latency_ms = self._freeze(np.asarray(latency_ms, dtype=float))
        self.power_mw = self._freeze(np.asarray(power_mw, dtype=float))
        self.energy_mj = self._freeze(np.asarray(energy_mj, dtype=float))
        self.accuracy_percent = self._freeze(np.asarray(accuracy_percent, dtype=float))
        self.confidence_percent = self._freeze(np.asarray(confidence_percent, dtype=float))
        self.fps = self._freeze(np.asarray(fps, dtype=float))
        self.frequency_mhz = self._freeze(np.asarray(frequency_mhz, dtype=float))
        self.configuration = self._freeze(np.asarray(configuration, dtype=float))
        self._points: Optional[Tuple[OperatingPoint, ...]] = None

    @staticmethod
    def _freeze(array: np.ndarray) -> np.ndarray:
        array.flags.writeable = False
        return array

    # ------------------------------------------------------------ construction

    @classmethod
    def from_points(cls, points: Sequence[OperatingPoint]) -> "OperatingPointTable":
        """Build a table from materialised operating points."""
        points = tuple(points)
        names: List[str] = []
        index_of: Dict[str, int] = {}
        cluster_index = np.empty(len(points), dtype=np.int64)
        for row, point in enumerate(points):
            index = index_of.get(point.cluster_name)
            if index is None:
                index = index_of[point.cluster_name] = len(names)
                names.append(point.cluster_name)
            cluster_index[row] = index
        latency = np.array([p.latency_ms for p in points], dtype=float)
        table = cls(
            cluster_names=tuple(names),
            cluster_index=cluster_index,
            cores=np.array([p.cores for p in points], dtype=np.int64),
            latency_ms=latency,
            power_mw=np.array([p.power_mw for p in points], dtype=float),
            energy_mj=np.array([p.energy_mj for p in points], dtype=float),
            accuracy_percent=np.array([p.accuracy_percent for p in points], dtype=float),
            confidence_percent=np.array([p.confidence_percent for p in points], dtype=float),
            fps=1000.0 / latency if len(points) else np.empty(0, dtype=float),
            frequency_mhz=np.array([p.frequency_mhz for p in points], dtype=float),
            configuration=np.array([p.configuration for p in points], dtype=float),
        )
        table._points = points
        return table

    @classmethod
    def concat(cls, tables: Sequence["OperatingPointTable"]) -> "OperatingPointTable":
        """Row-wise concatenation, preserving order (cluster ids are remapped)."""
        tables = [table for table in tables if len(table)]
        if not tables:
            return cls.empty()
        if len(tables) == 1:
            return tables[0]
        names: List[str] = []
        index_of: Dict[str, int] = {}
        index_chunks: List[np.ndarray] = []
        for table in tables:
            remap = np.empty(len(table.cluster_names), dtype=np.int64)
            for local, name in enumerate(table.cluster_names):
                index = index_of.get(name)
                if index is None:
                    index = index_of[name] = len(names)
                    names.append(name)
                remap[local] = index
            index_chunks.append(remap[table.cluster_index])
        merged = cls(
            cluster_names=tuple(names),
            cluster_index=np.concatenate(index_chunks),
            cores=np.concatenate([t.cores for t in tables]),
            latency_ms=np.concatenate([t.latency_ms for t in tables]),
            power_mw=np.concatenate([t.power_mw for t in tables]),
            energy_mj=np.concatenate([t.energy_mj for t in tables]),
            accuracy_percent=np.concatenate([t.accuracy_percent for t in tables]),
            confidence_percent=np.concatenate([t.confidence_percent for t in tables]),
            fps=np.concatenate([t.fps for t in tables]),
            frequency_mhz=np.concatenate([t.frequency_mhz for t in tables]),
            configuration=np.concatenate([t.configuration for t in tables]),
        )
        if all(t._points is not None for t in tables):
            merged._points = tuple(p for t in tables for p in t._points)  # type: ignore[union-attr]
        return merged

    @classmethod
    def empty(cls) -> "OperatingPointTable":
        """A table with zero rows."""
        zero_f = np.empty(0, dtype=float)
        table = cls(
            cluster_names=(),
            cluster_index=np.empty(0, dtype=np.int64),
            cores=np.empty(0, dtype=np.int64),
            latency_ms=zero_f,
            power_mw=zero_f,
            energy_mj=zero_f,
            accuracy_percent=zero_f,
            confidence_percent=zero_f,
            fps=zero_f,
            frequency_mhz=zero_f,
            configuration=zero_f,
        )
        table._points = ()
        return table

    # ----------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self.latency_ms)

    def column(self, name: str) -> np.ndarray:
        """Column by metric/knob name (used by the Pareto machinery)."""
        if name not in _METRIC_COLUMNS and name not in ("cores", "cluster_index"):
            raise KeyError(f"unknown operating-point column {name!r}")
        return getattr(self, name)

    def take(self, indices: np.ndarray) -> "OperatingPointTable":
        """Row subset (fancy-index view) preserving order of ``indices``.

        Accepts integer indices or a boolean row mask.
        """
        indices = np.asarray(indices)
        if indices.dtype == bool:
            # Normalise masks: bool fancy-indexing of the lazily-materialised
            # point tuple would silently index with 0/1 instead of masking.
            indices = np.flatnonzero(indices)
        view = OperatingPointTable(
            cluster_names=self.cluster_names,
            cluster_index=self.cluster_index[indices],
            cores=self.cores[indices],
            latency_ms=self.latency_ms[indices],
            power_mw=self.power_mw[indices],
            energy_mj=self.energy_mj[indices],
            accuracy_percent=self.accuracy_percent[indices],
            confidence_percent=self.confidence_percent[indices],
            fps=self.fps[indices],
            frequency_mhz=self.frequency_mhz[indices],
            configuration=self.configuration[indices],
        )
        if self._points is not None:
            view._points = tuple(self._points[i] for i in indices.tolist())
        return view

    def point(self, row: int) -> OperatingPoint:
        """Materialise one row as an :class:`OperatingPoint`."""
        if self._points is not None:
            return self._points[row]
        return OperatingPoint(
            cluster_name=self.cluster_names[int(self.cluster_index[row])],
            frequency_mhz=float(self.frequency_mhz[row]),
            cores=int(self.cores[row]),
            configuration=float(self.configuration[row]),
            latency_ms=float(self.latency_ms[row]),
            power_mw=float(self.power_mw[row]),
            energy_mj=float(self.energy_mj[row]),
            accuracy_percent=float(self.accuracy_percent[row]),
            confidence_percent=float(self.confidence_percent[row]),
        )

    @property
    def points(self) -> List[OperatingPoint]:
        """The rows as :class:`OperatingPoint` objects (materialised lazily)."""
        if self._points is None:
            self._points = tuple(self.point(row) for row in range(len(self)))
        return list(self._points)

    # ------------------------------------------------------------------ pareto

    def objective_matrix(
        self, objectives: Sequence[str], maximise: Sequence[str]
    ) -> np.ndarray:
        """The (rows x metrics) matrix the Pareto filter runs on.

        Minimised metrics enter as-is, maximised metrics negated — exactly
        the matrix :func:`pareto_front` builds from point objects.
        """
        matrix = np.empty((len(self), len(objectives) + len(maximise)), dtype=float)
        for column, name in enumerate(objectives):
            matrix[:, column] = self.column(name)
        for offset, name in enumerate(maximise):
            matrix[:, len(objectives) + offset] = -self.column(name)
        return matrix

    def pareto(
        self,
        objectives: Sequence[str] = ("latency_ms", "energy_mj"),
        maximise: Sequence[str] = ("accuracy_percent",),
    ) -> "OperatingPointTable":
        """Pareto-optimal subset as a table view (row order preserved).

        The front is one :func:`pareto_mask` over the objective matrix; the
        survivors keep their table order.
        """
        if len(self) < 2:
            return self
        return self.take(np.flatnonzero(~pareto_mask(self.objective_matrix(objectives, maximise))))


def pareto_mask(matrix: np.ndarray) -> np.ndarray:
    """Domination mask of a (rows x metrics) matrix, all metrics minimised.

    ``mask[i]`` is True when some row j is no worse than row i on every
    column and strictly better on at least one.  A row identical to another
    is never "strictly better", so a point can neither dominate itself nor
    be dominated by its duplicates.
    """
    count = len(matrix)
    if count < 2:
        return np.zeros(count, dtype=bool)
    if count <= 2048:
        # no_worse[i, j] means "j is no worse than i on every column", built
        # one contiguous (n x n) comparison per column.  Given that, "j
        # strictly better somewhere" is exactly "i is NOT no-worse than j"
        # (equal rows are no-worse both ways), so the matrix and its
        # transpose cover both conditions.
        no_worse = np.ones((count, count), dtype=bool)
        for column in matrix.T:
            no_worse &= column[None, :] <= column[:, None]
        return (no_worse & ~no_worse.T).any(axis=1)
    # Row-at-a-time fallback bounds the broadcast to O(n) memory.
    dominated = np.zeros(count, dtype=bool)
    for index in range(count):
        row = matrix[index]
        no_worse = (matrix <= row).all(axis=1)
        strictly = (matrix < row).any(axis=1)
        dominated[index] = (no_worse & strictly).any()
    return dominated


def pareto_front(
    points: Iterable[OperatingPoint],
    objectives: Sequence[str] = ("latency_ms", "energy_mj"),
    maximise: Sequence[str] = ("accuracy_percent",),
) -> List[OperatingPoint]:
    """Pareto-optimal subset of operating points.

    A point is dominated if another point is no worse on every objective
    (lower for the minimised metrics, higher for the maximised ones) and
    strictly better on at least one.  Surviving points keep their input
    order; duplicate points do not dominate each other, so ties survive.

    Parameters
    ----------
    points:
        The candidate operating points.
    objectives:
        Metric attribute names to minimise.
    maximise:
        Metric attribute names to maximise.
    """
    candidates = list(points)
    if len(candidates) < 2:
        return candidates
    matrix = np.array(
        [
            [getattr(point, name) for name in objectives]
            + [-getattr(point, name) for name in maximise]
            for point in candidates
        ],
        dtype=float,
    )
    dominated = pareto_mask(matrix)
    return [point for point, is_dominated in zip(candidates, dominated) if not is_dominated]


class OperatingPointSpace:
    """Enumerate and query the operating points of one trained dynamic DNN.

    Parameters
    ----------
    trained:
        The trained dynamic DNN (configurations + accuracy profile).
    soc:
        The platform.
    energy_model:
        Estimator combining latency and power models.
    clusters:
        Cluster names to consider; defaults to every cluster of the SoC.
    max_cores_per_cluster:
        Cap on how many cores of one cluster a single inference may use.
    """

    def __init__(
        self,
        trained: TrainedDynamicDNN,
        soc: Soc,
        energy_model: EnergyModel,
        clusters: Optional[Sequence[str]] = None,
        max_cores_per_cluster: int = 4,
    ) -> None:
        if max_cores_per_cluster <= 0:
            raise ValueError("max_cores_per_cluster must be positive")
        self.trained = trained
        self.soc = soc
        self.energy_model = energy_model
        self.cluster_names = list(clusters) if clusters is not None else soc.cluster_names
        self.max_cores_per_cluster = max_cores_per_cluster
        #: Distinct operating points priced so far (cache-efficiency probe).
        self.points_priced = 0
        # Per-configuration (network, accuracy, confidence) triples.
        self._fraction_cache: Dict[float, tuple] = {}
        # Point keys priced so far.  points_priced counts *distinct* points:
        # a restricted query over an already-priced grid arrives as a new
        # block shape and re-derives its columns in a few vectorised ops, but
        # never counts a previously-priced point again.
        self._priced_keys: set = set()
        # Priced column blocks keyed by everything that determines them.
        self._block_cache: Dict[tuple, OperatingPointTable] = {}

    # ------------------------------------------------------------- candidates

    def candidate_axes(
        self, cluster: Cluster
    ) -> Tuple[List[float], List[int], List[float]]:
        """Default (configurations, core counts, frequencies) of one cluster."""
        counts = list(range(1, min(cluster.num_cores, self.max_cores_per_cluster) + 1))
        return list(self.trained.configurations), counts, cluster.available_frequencies()

    def _fraction_data(self, fraction: float) -> tuple:
        data = self._fraction_cache.get(fraction)
        if data is None:
            data = (
                self.trained.dynamic_dnn.model_for(fraction),
                self.trained.top1(fraction),
                self.trained.confidence(fraction),
            )
            self._fraction_cache[fraction] = data
        return data

    # ------------------------------------------------------------------ blocks

    def _block(
        self,
        cluster: Cluster,
        fractions: Sequence[float],
        counts: Sequence[int],
        frequencies: Sequence[float],
        temperature_c: float,
    ) -> OperatingPointTable:
        """Memoised columnar pricing of one (fractions x counts x freqs) block.

        The key covers every input of the cost model, including the cluster's
        online-core count (idle power is charged per online core), so a block
        is priced exactly once per distinct platform condition.
        """
        online = len(cluster.online_cores)
        key = (
            cluster.name,
            online,
            temperature_c,
            tuple(fractions),
            tuple(counts),
            tuple(frequencies),
        )
        block = self._block_cache.get(key)
        if block is None:
            block = self._price_block(cluster, fractions, counts, frequencies, temperature_c)
            self._block_cache[key] = block
            before = len(self._priced_keys)
            self._priced_keys.update(
                itertools.product(
                    (cluster.name,), (online,), (temperature_c,), fractions, counts, frequencies
                )
            )
            self.points_priced += len(self._priced_keys) - before
        return block

    def _price_block(
        self,
        cluster: Cluster,
        fractions: Sequence[float],
        counts: Sequence[int],
        frequencies: Sequence[float],
        temperature_c: float,
    ) -> OperatingPointTable:
        """Price one block; vectorised when the energy model supports it."""
        rows = len(fractions) * len(counts) * len(frequencies)
        if rows == 0:
            return OperatingPointTable.empty()
        if not self.energy_model.supports_grid_pricing:
            return self._price_block_scalar(cluster, fractions, counts, frequencies, temperature_c)
        networks, top1, confidence = zip(*(self._fraction_data(f) for f in fractions))
        latency, power, energy = self.energy_model.cost_grid(
            networks,
            cluster,
            frequencies_mhz=list(frequencies),
            core_counts=list(counts),
            temperature_c=temperature_c,
            soc_name=self.soc.name,
        )
        # Rows run fraction-major, then core count, then frequency.
        per_fraction = len(counts) * len(frequencies)
        latency = latency.ravel()
        return OperatingPointTable(
            cluster_names=(cluster.name,),
            cluster_index=np.zeros(rows, dtype=np.int64),
            cores=np.tile(
                np.repeat(np.asarray(counts, dtype=np.int64), len(frequencies)), len(fractions)
            ),
            latency_ms=latency,
            power_mw=power.ravel(),
            energy_mj=energy.ravel(),
            accuracy_percent=np.repeat(np.asarray(top1, dtype=float), per_fraction),
            confidence_percent=np.repeat(np.asarray(confidence, dtype=float), per_fraction),
            fps=1000.0 / latency,
            frequency_mhz=np.tile(
                np.asarray(frequencies, dtype=float), len(fractions) * len(counts)
            ),
            configuration=np.repeat(np.asarray(fractions, dtype=float), per_fraction),
        )

    def _price_block_scalar(
        self,
        cluster: Cluster,
        fractions: Sequence[float],
        counts: Sequence[int],
        frequencies: Sequence[float],
        temperature_c: float,
    ) -> OperatingPointTable:
        """Per-point fallback for latency estimators without grid pricing."""
        points: List[OperatingPoint] = []
        for fraction in fractions:
            network, top1, conf = self._fraction_data(fraction)
            for cores in counts:
                for frequency in frequencies:
                    cost = self.energy_model.cost(
                        network,
                        cluster,
                        frequency_mhz=frequency,
                        cores_used=cores,
                        temperature_c=temperature_c,
                        soc_name=self.soc.name,
                    )
                    points.append(
                        OperatingPoint(
                            cluster_name=cluster.name,
                            frequency_mhz=frequency,
                            cores=cores,
                            configuration=fraction,
                            latency_ms=cost.latency_ms,
                            power_mw=cost.power_mw,
                            energy_mj=cost.energy_mj,
                            accuracy_percent=top1,
                            confidence_percent=conf,
                        )
                    )
        return OperatingPointTable.from_points(points)

    def _query_blocks(
        self,
        clusters: Optional[Sequence[str]] = None,
        configurations: Optional[Sequence[float]] = None,
        core_counts: Optional[Sequence[int]] = None,
        frequencies: Optional[dict] = None,
        temperature_c: float = 45.0,
    ) -> List[OperatingPointTable]:
        """Per-cluster blocks of one enumeration query (memoised pricing)."""
        cluster_names = list(clusters) if clusters is not None else list(self.cluster_names)
        blocks: List[OperatingPointTable] = []
        for cluster_name in cluster_names:
            if not self.soc.has_cluster(cluster_name):
                continue
            cluster = self.soc.cluster(cluster_name)
            default_fractions, default_counts, default_frequencies = self.candidate_axes(cluster)
            fractions = (
                list(configurations) if configurations is not None else default_fractions
            )
            if frequencies is not None and cluster_name in frequencies:
                cluster_frequencies = list(frequencies[cluster_name])
            else:
                cluster_frequencies = default_frequencies
            if core_counts is None:
                counts = default_counts
            else:
                counts = [c for c in core_counts if 1 <= c <= cluster.num_cores]
            blocks.append(
                self._block(cluster, fractions, counts, cluster_frequencies, temperature_c)
            )
        return blocks

    # ------------------------------------------------------------ enumeration

    def enumerate(
        self,
        clusters: Optional[Sequence[str]] = None,
        configurations: Optional[Sequence[float]] = None,
        core_counts: Optional[Sequence[int]] = None,
        frequencies: Optional[dict] = None,
        temperature_c: float = 45.0,
    ) -> List[OperatingPoint]:
        """Enumerate operating points.

        Parameters
        ----------
        clusters:
            Restrict to these clusters (e.g. the ones with free cores).
        configurations:
            Restrict to these dynamic-DNN fractions.
        core_counts:
            Core counts to consider per cluster; defaults to 1..min(cluster
            size, ``max_cores_per_cluster``).
        frequencies:
            Optional mapping of cluster name to an iterable of frequencies;
            defaults to the whole OPP table of each cluster.  Passing a
            single-element list pins a cluster to a fixed frequency (used
            when another application already fixed the shared domain).
        temperature_c:
            Temperature used for leakage in the power prediction.
        """
        points: List[OperatingPoint] = []
        for block in self._query_blocks(
            clusters, configurations, core_counts, frequencies, temperature_c
        ):
            points.extend(block.points)
        return points

    def enumerate_table(
        self,
        clusters: Optional[Sequence[str]] = None,
        configurations: Optional[Sequence[float]] = None,
        core_counts: Optional[Sequence[int]] = None,
        frequencies: Optional[dict] = None,
        temperature_c: float = 45.0,
    ) -> OperatingPointTable:
        """Columnar :meth:`enumerate`: the same rows as a struct-of-arrays table.

        Row order matches :meth:`enumerate` exactly, and every float is
        bit-identical to the corresponding :class:`OperatingPoint` field.
        """
        return OperatingPointTable.concat(
            self._query_blocks(clusters, configurations, core_counts, frequencies, temperature_c)
        )

    def fig4a_points(self) -> List[OperatingPoint]:
        """The Fig 4(a) sweep: single-core A15 and A7 points over all frequencies.

        Only meaningful on the Odroid XU3 preset; other platforms raise
        ``KeyError`` for the missing clusters.
        """
        return self.enumerate(clusters=["a15", "a7"], core_counts=[1])

    @staticmethod
    def feasible(
        points: Iterable[OperatingPoint],
        max_latency_ms: Optional[float] = None,
        max_energy_mj: Optional[float] = None,
        max_power_mw: Optional[float] = None,
        min_accuracy_percent: Optional[float] = None,
    ) -> List[OperatingPoint]:
        """Filter points to those meeting the given budgets."""
        selected = []
        for point in points:
            if max_latency_ms is not None and point.latency_ms > max_latency_ms:
                continue
            if max_energy_mj is not None and point.energy_mj > max_energy_mj:
                continue
            if max_power_mw is not None and point.power_mw > max_power_mw:
                continue
            if min_accuracy_percent is not None and point.accuracy_percent < min_accuracy_percent:
                continue
            selected.append(point)
        return selected
