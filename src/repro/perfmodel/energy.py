"""Energy and power estimation for one inference.

Energy is the product of the platform power during the inference and the
inference latency.  Power comes from the cluster's calibrated power model
(:mod:`repro.platforms.power`); latency from a latency estimator
(:mod:`repro.perfmodel.calibrated` or :mod:`repro.perfmodel.roofline`).

The estimator returns an :class:`InferenceCost` bundling latency, average
power and energy — exactly the platform-dependent metrics of Table I — so
that the operating-point machinery in :mod:`repro.rtm` can price every
(configuration, cluster, frequency) combination with one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.dnn.model import NetworkModel
from repro.platforms.cluster import Cluster

__all__ = ["InferenceCost", "LatencyEstimator", "EnergyModel"]


class LatencyEstimator(Protocol):
    """Anything that can predict a latency for (network, cluster, frequency)."""

    def latency_ms(
        self,
        network: NetworkModel,
        cluster: Cluster,
        frequency_mhz: float | None = None,
        cores_used: int = 1,
        **kwargs: object,
    ) -> float:  # pragma: no cover - protocol signature
        ...


@dataclass(frozen=True)
class InferenceCost:
    """Predicted cost of one inference.

    Attributes
    ----------
    latency_ms:
        Execution time in milliseconds.
    power_mw:
        Average cluster power during the inference, in milliwatts.
    energy_mj:
        Energy of the inference in millijoules (power x latency).
    """

    latency_ms: float
    power_mw: float
    energy_mj: float

    @property
    def fps(self) -> float:
        """Sustained throughput if inferences run back to back."""
        return 1000.0 / self.latency_ms


class EnergyModel:
    """Combine a latency estimator with the platform power model.

    Parameters
    ----------
    latency_model:
        The latency estimator to use (calibrated or roofline).
    busy_utilisation:
        Utilisation of each core running the inference (close to 1 for the
        compute-bound convolutional workloads the paper measures).
    """

    def __init__(self, latency_model: LatencyEstimator, busy_utilisation: float = 0.95) -> None:
        if not 0.0 < busy_utilisation <= 1.0:
            raise ValueError("busy_utilisation must be in (0, 1]")
        self.latency_model = latency_model
        self.busy_utilisation = busy_utilisation

    def cache_key(self) -> tuple:
        """Stable identity of this estimator for operating-point caches.

        Combines the latency model's own key (falling back to the instance
        identity for estimators without one) with the busy-utilisation
        parameter the power prediction depends on.
        """
        method = getattr(self.latency_model, "cache_key", None)
        if callable(method):
            latency_key = method()
        else:
            latency_key = (type(self.latency_model).__qualname__, id(self.latency_model))
        return ("energy", latency_key, self.busy_utilisation)

    def inference_power_mw(
        self,
        cluster: Cluster,
        frequency_mhz: Optional[float] = None,
        cores_used: int = 1,
        temperature_c: float = 45.0,
    ) -> float:
        """Average cluster power while the inference runs."""
        if cores_used <= 0:
            raise ValueError("cores_used must be positive")
        cores_used = min(cores_used, cluster.num_cores)
        voltage = (
            cluster.voltage_v
            if frequency_mhz is None
            else cluster.opp_table.point_at(frequency_mhz).voltage_v
        )
        frequency = cluster.frequency_mhz if frequency_mhz is None else frequency_mhz
        # Pricing is hypothetical: evaluating "what if this inference ran on
        # cores_used cores" presumes at least that many cores online, even
        # when faults have forced some offline right now.  Fault-free the
        # max() is the plain online count (allocations never exceed it).
        return cluster.power_model.cluster_power_mw(
            voltage_v=voltage,
            frequency_mhz=frequency,
            core_utilisations=[self.busy_utilisation] * cores_used,
            temperature_c=temperature_c,
            online_cores=max(len(cluster.online_cores), cores_used),
        )

    def cost(
        self,
        network: NetworkModel,
        cluster: Cluster,
        frequency_mhz: Optional[float] = None,
        cores_used: int = 1,
        temperature_c: float = 45.0,
        soc_name: Optional[str] = None,
    ) -> InferenceCost:
        """Latency, power and energy of one inference.

        Parameters mirror the latency estimator; ``soc_name`` is forwarded to
        calibrated estimators that key their calibration by SoC.
        """
        kwargs = {}
        if soc_name is not None:
            kwargs["soc_name"] = soc_name
        latency_ms = self.latency_model.latency_ms(
            network, cluster, frequency_mhz, cores_used, **kwargs
        )
        power_mw = self.inference_power_mw(cluster, frequency_mhz, cores_used, temperature_c)
        energy_mj = power_mw * latency_ms / 1000.0
        return InferenceCost(latency_ms=latency_ms, power_mw=power_mw, energy_mj=energy_mj)

    # ------------------------------------------------------------ grid pricing

    @property
    def supports_grid_pricing(self) -> bool:
        """True when the latency estimator can price whole grids at once."""
        return callable(getattr(self.latency_model, "latency_grid_ms", None))

    def cost_grid(
        self,
        networks: Sequence[NetworkModel],
        cluster: Cluster,
        frequencies_mhz: "list[float]",
        core_counts: "list[int]",
        temperature_c: float = 45.0,
        soc_name: Optional[str] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised :meth:`cost` over a (networks x cores x frequency) grid.

        Returns ``(latency_ms, power_mw, energy_mj)`` arrays of shape
        ``(len(networks), len(core_counts), len(frequencies_mhz))`` whose
        entries are bit-identical to per-point :meth:`cost` calls — this is
        the pricing backend of the columnar operating-point kernel.  Power
        does not depend on the network, so it is priced once per grid and
        broadcast (the returned power array is a read-only view).  Requires a
        latency estimator with a ``latency_grid_ms`` method (see
        :attr:`supports_grid_pricing`); callers fall back to per-point
        pricing for custom estimators without one.
        """
        if not self.supports_grid_pricing:
            raise TypeError(
                f"latency model {type(self.latency_model).__qualname__} has no "
                "latency_grid_ms; use per-point cost() instead"
            )
        if any(count <= 0 for count in core_counts):
            raise ValueError("cores_used must be positive")
        frequencies = np.asarray(frequencies_mhz, dtype=float)
        voltages = np.array(
            [cluster.opp_table.point_at(f).voltage_v for f in frequencies_mhz], dtype=float
        )
        clamped = [min(count, cluster.num_cores) for count in core_counts]
        latency = np.stack(
            [
                self.latency_model.latency_grid_ms(
                    network, cluster, frequencies, core_counts, soc_name=soc_name
                )
                for network in networks
            ]
        )
        # Rows with count > online are priced hypothetically (grid clips idle
        # cores at zero), matching inference_power_mw's max(online, cores_used).
        power = cluster.power_model.cluster_power_grid_mw(
            voltages,
            frequencies,
            clamped,
            busy_utilisation=self.busy_utilisation,
            temperature_c=temperature_c,
            online_cores=len(cluster.online_cores),
        )
        energy = power * latency / 1000.0
        return latency, np.broadcast_to(power, latency.shape), energy
