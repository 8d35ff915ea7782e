"""The three study metrics."""

import numpy as np
import pytest

from mmwsim import (AllZeroThroughputError, KpiError, KpiRecord,
                    average_ue_throughput, jain_fairness, spectral_efficiency)


def test_average_ue_throughput():
    assert average_ue_throughput([1.0, 2.0, 3.0]) == 2.0
    assert average_ue_throughput([10.0, 20.0]) == 15.0


def test_spectral_efficiency_normalizes_by_bandwidth():
    assert spectral_efficiency([5e6, 5e6], 10e6) == 1.0
    with pytest.raises(KpiError):
        spectral_efficiency([1.0], 0.0)


def test_jain_fairness_oracle_values():
    # (1+2+3)^2 / (3 * (1+4+9)) = 36/42 = 6/7
    assert jain_fairness([1.0, 2.0, 3.0]) == pytest.approx(6.0 / 7.0,
                                                           abs=1e-12)
    assert jain_fairness([4.0]) == 1.0


def test_jain_fairness_equal_vectors_are_exactly_one():
    for v in (1.0, 7.3, 0.1, 2.5e8):
        for n in (1, 2, 3, 5, 10):
            assert jain_fairness([v] * n) == 1.0


def test_jain_fairness_single_winner_is_exactly_one_over_n():
    for v in (1.0, 7.3, 2.5e8):
        for n in (2, 3, 5, 8):
            assert jain_fairness([v] + [0.0] * (n - 1)) == 1.0 / n


def test_jain_fairness_is_scale_free_and_overflow_safe():
    values = [1.0, 2.0, 5.0, 0.5]
    base = jain_fairness(values)
    for c in (1e-12, 1e3, 1e300):
        assert jain_fairness([c * v for v in values]) \
            == pytest.approx(base, rel=1e-12)


def test_kpi_input_validation():
    with pytest.raises(KpiError):
        average_ue_throughput([])
    with pytest.raises(KpiError):
        jain_fairness([1.0, -2.0])
    with pytest.raises(KpiError):
        average_ue_throughput([1.0, float("nan")])
    with pytest.raises(AllZeroThroughputError):
        jain_fairness([0.0, 0.0])


def test_metric_cross_consistency_identity():
    # spectral efficiency times bandwidth equals n times average throughput
    # (both reduce to the same sum) for any population
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        tp = list(rng.uniform(0.0, 1e8, n))
        bw = float(rng.uniform(1e6, 1e9))
        lhs = spectral_efficiency(tp, bw) * bw
        rhs = n * average_ue_throughput(tp)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_kpi_record_mbps_property():
    rec = KpiRecord(scheduler="RR", polarization="LPOL", velocity_kmph=0.0,
                    seed=1, avg_ue_throughput_bps=2.5e6,
                    spectral_efficiency_bps_hz=1.0, fairness_index=0.9,
                    n_ues=10, bandwidth_hz=10e6)
    assert rec.avg_ue_throughput_mbps == 2.5
