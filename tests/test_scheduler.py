"""RR/PF disciplines and the throughput EWMA."""

import numpy as np
import pytest

from mmwsim import (SchedulerError, jain_fairness, schedule_pf, schedule_rr,
                    update_average_throughput)


def test_rr_equal_share_after_three_ttis():
    ues = np.array([0, 1, 2])
    cursor = 0
    totals = np.zeros(3, dtype=int)
    for _ in range(3):
        rb_to_ue, cursor = schedule_rr(ues, 50, cursor)
        assert len(rb_to_ue) == 50
        totals += np.bincount(rb_to_ue, minlength=3)
    # 150 RBs over 3 UEs: exactly 50 each because the cursor persists
    assert totals.tolist() == [50, 50, 50]


def test_rr_single_tti_imbalance_is_at_most_one_rb():
    rb_to_ue, cursor = schedule_rr(np.arange(3), 50, 0)
    counts = sorted(np.bincount(rb_to_ue, minlength=3).tolist())
    assert counts == [16, 17, 17]
    assert cursor == 50 % 3


def test_rr_conservation_property():
    rng = np.random.default_rng(12)
    for _ in range(30):
        n_ues = int(rng.integers(1, 12))
        n_rb = int(rng.integers(1, 80))
        n_tti = int(rng.integers(1, 8))
        ues = np.sort(rng.choice(200, size=n_ues, replace=False))
        cursor = 0
        totals = np.zeros(n_ues, dtype=int)
        for _ in range(n_tti):
            rb_to_ue, cursor = schedule_rr(ues, n_rb, cursor)
            assert len(rb_to_ue) == n_rb            # conservation
            assert set(rb_to_ue) <= set(ues)
            totals += [np.count_nonzero(rb_to_ue == u) for u in ues]
        # cyclic assignment: cumulative shares differ by at most one RB
        assert totals.max() - totals.min() <= 1


def test_rr_is_channel_independent():
    # identical state, wildly different channels: same grants
    a, _ = schedule_rr(np.array([4, 9]), 7, 0)
    b, _ = schedule_rr(np.array([4, 9]), 7, 0)
    assert np.array_equal(a, b)


def test_pf_argmax_rate_over_average():
    rates = np.array([[50.0, 10.0, 10.0], [100.0, 100.0, 40.0]])
    rb_to_ue = schedule_pf(np.array([1, 2]), rates, np.array([100.0, 400.0]))
    # priorities ue1: .5, .1, .1; ue2: .25, .25, .1 (tie on rb 2 -> ue 1)
    assert rb_to_ue.tolist() == [1, 2, 1]


def test_pf_ties_go_to_lowest_ue_id():
    rb_to_ue = schedule_pf(np.array([3, 7]), np.full((2, 2), 5.0),
                           np.array([10.0, 10.0]))
    assert rb_to_ue.tolist() == [3, 3]


def test_pf_rejects_a_nan_rate():
    # NaN compares false with everything: a `rates < 0` check would let it
    # through, and argmax would grant RB 1 to UE 0, whose rate there is NaN
    with pytest.raises(SchedulerError, match="NaN rate for ue 0"):
        schedule_pf([0, 1], [[1.0, np.nan], [2.0, 1.0]], [1.0, 1.0])


def test_pf_input_validation():
    ues, avg = np.array([1, 2]), np.array([10.0, 10.0])
    with pytest.raises(SchedulerError, match="rates must be"):
        schedule_pf(ues, np.ones((1, 2)), avg)
    with pytest.raises(SchedulerError, match="rates must be"):
        schedule_pf(ues, np.ones(2), avg)
    with pytest.raises(SchedulerError, match="avg must be"):
        schedule_pf(ues, np.ones((2, 2)), np.array([10.0]))
    with pytest.raises(SchedulerError, match="negative or NaN rate for ue 2"):
        schedule_pf(ues, np.array([[1.0, 1.0], [1.0, -2.0]]), avg)
    for bad in (0.0, -1.0, np.nan):
        with pytest.raises(SchedulerError, match="ue 2 has no positive"):
            schedule_pf(ues, np.ones((2, 2)), np.array([10.0, bad]))
    with pytest.raises(SchedulerError, match="at least one UE"):
        schedule_pf(np.array([], dtype=int), np.ones((0, 2)), np.ones(0))
    with pytest.raises(SchedulerError, match="ascending"):
        schedule_pf(np.array([2, 1]), np.ones((2, 2)), avg)
    with pytest.raises(SchedulerError, match="at least one UE"):
        schedule_rr(np.array([], dtype=int), 5, 0)
    with pytest.raises(SchedulerError, match="n_rb"):
        schedule_rr(ues, 0, 0)
    with pytest.raises(SchedulerError, match="granted must match"):
        update_average_throughput(avg, np.ones(3), time_constant=2.0)


def test_pf_scale_invariance():
    # scaling all rates and all averages by the same factor keeps the
    # winners: the metric is a ratio
    rng = np.random.default_rng(23)
    ues = np.array([1, 2, 3, 4])
    for _ in range(25):
        avg = rng.uniform(10.0, 1e5, 4)
        rates = rng.uniform(0.0, 1e4, (4, 12))
        base = schedule_pf(ues, rates, avg)
        for c in (1e-6, 3.0, 1e9):
            assert np.array_equal(base, schedule_pf(ues, c * rates, c * avg))


def test_ewma_update_pinned_recurrence():
    avg = update_average_throughput(np.array([4.0]), np.array([8.0]),
                                    time_constant=2.0)
    # (1 - 1/2) * 4 + (1/2) * 8
    assert avg[0] == 6.0


def test_ewma_time_constant_one_is_memoryless():
    avg = update_average_throughput(np.array([123.0]), np.array([77.0]),
                                    time_constant=1.0)
    assert avg[0] == 77.0


def test_ewma_updates_unscheduled_ues_toward_zero():
    avg = update_average_throughput(np.array([100.0, 100.0]),
                                    np.array([100.0, 0.0]), time_constant=4.0)
    assert avg.tolist() == [100.0, 75.0]
    with pytest.raises(SchedulerError):
        update_average_throughput(avg, np.zeros(2), time_constant=0.9)


def test_ewma_converges_geometrically_to_constant_grant():
    tc, target = 20.0, 5000.0
    avg = np.array([0.5])
    err_prev = abs(avg[0] - target)
    for _ in range(60):
        avg = update_average_throughput(avg, np.array([target]),
                                        time_constant=tc)
        err = abs(avg[0] - target)
        assert err == pytest.approx(err_prev * (1.0 - 1.0 / tc), rel=1e-9)
        err_prev = err


def test_pf_long_run_rb_shares_are_fair_for_symmetric_channels():
    # two statistically identical UEs over 500 TTIs: the EWMA feedback
    # equalizes the RB shares even though each TTI's argmax is greedy
    rng = np.random.default_rng(77)
    n_rb = 6
    ues = np.array([0, 1])
    avg = np.full(2, 1000.0)
    rb_totals = np.zeros(2, dtype=int)
    for _ in range(500):
        rates = rng.exponential(1000.0, (2, n_rb))
        rb_to_ue = schedule_pf(ues, rates, avg)
        granted = np.where(rb_to_ue == ues[:, None], rates, 0.0).sum(axis=1)
        avg = update_average_throughput(avg, granted, time_constant=20.0)
        rb_totals += np.bincount(rb_to_ue, minlength=2)
    assert jain_fairness(rb_totals.tolist()) >= 0.95
