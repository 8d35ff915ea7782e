"""The three study metrics over per-UE throughputs.

Average UE throughput  T_avg = sum_k T_k / n          (bit/s)
Spectral efficiency    S     = sum_k T_k / B          (bit/s/Hz)
Jain fairness          J     = (sum T_k)^2 / (n sum T_k^2), in [1/n, 1]
"""

from dataclasses import dataclass

import numpy as np


class KpiError(ValueError):
    pass


class AllZeroThroughputError(KpiError):
    """Jain's index is 0/0 when every UE saw zero throughput."""


def average_ue_throughput(throughputs):
    """Mean per-UE throughput, bit/s."""
    values = _values(throughputs)
    return float(np.sum(values) / values.size)


def spectral_efficiency(throughputs, bandwidth_hz):
    """Aggregate served rate normalized by system bandwidth, bit/s/Hz."""
    if bandwidth_hz <= 0:
        raise KpiError("bandwidth must be > 0")
    values = _values(throughputs)
    return float(np.sum(values) / bandwidth_hz)


def jain_fairness(throughputs):
    """Jain's index; 1 means perfectly even, 1/n a single-UE monopoly.

    The index is scale-free, so values are normalized by their maximum
    before squaring: equal vectors come out exactly 1.0 and a single
    winner exactly 1/n, at any magnitude, with no overflow.
    """
    values = _values(throughputs)
    top = float(np.max(values))
    if top == 0.0:
        raise AllZeroThroughputError(
            "fairness undefined: all throughputs are zero")
    values = values / top
    total_sq = float(np.sum(values)) ** 2
    denom = values.size * float(np.sum(values ** 2))
    return total_sq / denom


def _values(throughputs):
    values = np.asarray(throughputs, dtype=float)
    if values.size == 0:
        raise KpiError("no UEs in KPI population")
    # NaN fails every comparison, so test for the allowed range
    if not np.all(values >= 0):
        raise KpiError("throughputs must be >= 0 and not NaN")
    return values


@dataclass
class KpiRecord:
    """One sweep point's results row (plus consistency bookkeeping)."""
    scheduler: str
    polarization: str
    velocity_kmph: float
    seed: int
    avg_ue_throughput_bps: float
    spectral_efficiency_bps_hz: float
    fairness_index: float
    n_ues: int
    bandwidth_hz: float

    @property
    def avg_ue_throughput_mbps(self):
        return self.avg_ue_throughput_bps / 1e6
