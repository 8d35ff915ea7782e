"""RR/PF disciplines and the throughput EWMA."""

import numpy as np
import pytest

from mmwsim import (Allocation, RbGrid, SchedulerError, SchedulerState,
                    jain_fairness, schedule_pf, schedule_rr,
                    update_average_throughput)


def test_rb_grid_validation_and_subband_count():
    grid = RbGrid(50)
    assert grid.s == 50
    assert grid.rb_bandwidth == 180e3
    with pytest.raises(SchedulerError):
        RbGrid(0)
    with pytest.raises(SchedulerError):
        RbGrid(10, rb_bandwidth=0.0)


def test_scheduler_state_fresh():
    state = SchedulerState.fresh([3, 1, 2], 1332.0)
    assert state.avg_throughput == {1: 1332.0, 2: 1332.0, 3: 1332.0}
    assert state.rr_cursor == 0
    with pytest.raises(SchedulerError):
        SchedulerState.fresh([1], 0.0)


def test_rr_equal_share_after_three_ttis():
    grid = RbGrid(50)
    state = SchedulerState.fresh([0, 1, 2], 1.0)
    totals = {0: 0, 1: 0, 2: 0}
    for _ in range(3):
        alloc = schedule_rr([0, 1, 2], grid, state)
        assert len(alloc.rb_to_ue) == 50
        for ue in totals:
            totals[ue] += alloc.rb_count(ue)
    # 150 RBs over 3 UEs: exactly 50 each because the cursor persists
    assert totals == {0: 50, 1: 50, 2: 50}


def test_rr_single_tti_imbalance_is_at_most_one_rb():
    grid = RbGrid(50)
    state = SchedulerState.fresh(range(3), 1.0)
    alloc = schedule_rr(range(3), grid, state)
    counts = sorted(alloc.rb_count(u) for u in range(3))
    assert counts == [16, 17, 17]
    assert state.rr_cursor == 50 % 3


def test_rr_conservation_property():
    rng = np.random.default_rng(12)
    for _ in range(30):
        n_ues = int(rng.integers(1, 12))
        n_rb = int(rng.integers(1, 80))
        n_tti = int(rng.integers(1, 8))
        ues = list(rng.choice(200, size=n_ues, replace=False))
        grid = RbGrid(n_rb)
        state = SchedulerState.fresh(ues, 1.0)
        totals = dict.fromkeys(ues, 0)
        for _ in range(n_tti):
            alloc = schedule_rr(ues, grid, state)
            assert len(alloc.rb_to_ue) == n_rb            # conservation
            assert set(alloc.rb_to_ue) <= set(ues)
            for ue in ues:
                totals[ue] += alloc.rb_count(ue)
        # cyclic assignment: cumulative shares differ by at most one RB
        assert max(totals.values()) - min(totals.values()) <= 1


def test_rr_is_channel_independent():
    # identical state, wildly different channels: same grants
    grid = RbGrid(7)
    a = schedule_rr([4, 9], grid, SchedulerState.fresh([4, 9], 1.0))
    b = schedule_rr([4, 9], grid, SchedulerState.fresh([4, 9], 1.0))
    assert np.array_equal(a.rb_to_ue, b.rb_to_ue)


def test_pf_argmax_rate_over_average():
    grid = RbGrid(3)
    state = SchedulerState(avg_throughput={1: 100.0, 2: 400.0})
    rates = {1: [50.0, 10.0, 10.0], 2: [100.0, 100.0, 40.0]}
    alloc = schedule_pf([1, 2], grid, rates, state)
    # priorities ue1: .5, .1, .1; ue2: .25, .25, .1 (tie on rb 2 -> ue 1)
    assert list(alloc.rb_to_ue) == [1, 2, 1]


def test_pf_ties_go_to_lowest_ue_id():
    grid = RbGrid(2)
    state = SchedulerState(avg_throughput={7: 10.0, 3: 10.0})
    rates = {3: [5.0, 5.0], 7: [5.0, 5.0]}
    alloc = schedule_pf([7, 3], grid, rates, state)
    assert list(alloc.rb_to_ue) == [3, 3]


def test_pf_input_validation():
    grid = RbGrid(2)
    state = SchedulerState(avg_throughput={1: 10.0})
    with pytest.raises(SchedulerError, match="missing per-RB rates"):
        schedule_pf([1, 2], grid, {1: [1.0, 1.0]}, state)
    with pytest.raises(SchedulerError, match="n_rb entries"):
        schedule_pf([1], grid, {1: [1.0]}, state)
    with pytest.raises(SchedulerError, match="negative rate"):
        schedule_pf([1], grid, {1: [1.0, -2.0]}, state)
    with pytest.raises(SchedulerError, match="positive average"):
        schedule_pf([1, 2], grid, {1: [1.0, 1.0], 2: [1.0, 1.0]},
                    SchedulerState(avg_throughput={1: 10.0, 2: 0.0}))
    with pytest.raises(SchedulerError):
        schedule_pf([], grid, {}, state)


def test_pf_scale_invariance():
    # scaling all rates and all averages by the same factor keeps the
    # winners: the metric is a ratio
    rng = np.random.default_rng(23)
    grid = RbGrid(12)
    for _ in range(25):
        ues = [1, 2, 3, 4]
        avgs = {u: float(rng.uniform(10.0, 1e5)) for u in ues}
        rates = {u: rng.uniform(0.0, 1e4, 12) for u in ues}
        base = schedule_pf(ues, grid, rates,
                           SchedulerState(avg_throughput=dict(avgs)))
        for c in (1e-6, 3.0, 1e9):
            scaled = schedule_pf(
                ues, grid, {u: c * r for u, r in rates.items()},
                SchedulerState(
                    avg_throughput={u: c * a for u, a in avgs.items()}))
            assert np.array_equal(base.rb_to_ue, scaled.rb_to_ue)


def test_ewma_update_pinned_recurrence():
    state = SchedulerState(avg_throughput={1: 4.0})
    update_average_throughput(state, {1: 8.0}, time_constant=2.0)
    # (1 - 1/2) * 4 + (1/2) * 8
    assert state.avg_throughput[1] == 6.0


def test_ewma_time_constant_one_is_memoryless():
    state = SchedulerState(avg_throughput={1: 123.0})
    update_average_throughput(state, {1: 77.0}, time_constant=1.0)
    assert state.avg_throughput[1] == 77.0


def test_ewma_updates_unscheduled_ues_toward_zero():
    state = SchedulerState(avg_throughput={1: 100.0, 2: 100.0})
    update_average_throughput(state, {1: 100.0}, time_constant=4.0)
    assert state.avg_throughput[1] == 100.0
    assert state.avg_throughput[2] == 75.0
    with pytest.raises(SchedulerError):
        update_average_throughput(state, {}, time_constant=0.9)


def test_ewma_converges_geometrically_to_constant_grant():
    tc, target = 20.0, 5000.0
    state = SchedulerState(avg_throughput={1: 0.5})
    err_prev = abs(state.avg_throughput[1] - target)
    for _ in range(60):
        update_average_throughput(state, {1: target}, time_constant=tc)
        err = abs(state.avg_throughput[1] - target)
        assert err == pytest.approx(err_prev * (1.0 - 1.0 / tc), rel=1e-9)
        err_prev = err


def test_allocation_rb_count():
    alloc = Allocation(rb_to_ue=np.array([1, 2, 1, 1]))
    assert alloc.rb_count(1) == 3
    assert alloc.rb_count(2) == 1
    assert alloc.rb_count(9) == 0


def test_pf_long_run_rb_shares_are_fair_for_symmetric_channels():
    # two statistically identical UEs over 500 TTIs: the EWMA feedback
    # equalizes the RB shares even though each TTI's argmax is greedy
    rng = np.random.default_rng(77)
    grid = RbGrid(6)
    ues = [0, 1]
    state = SchedulerState.fresh(ues, 1000.0)
    rb_totals = {0: 0, 1: 0}
    for _ in range(500):
        rates = {u: rng.exponential(1000.0, grid.n_rb) for u in ues}
        alloc = schedule_pf(ues, grid, rates, state)
        granted = {u: float(sum(rates[u][alloc.rb_to_ue == u])) for u in ues}
        update_average_throughput(state, granted, time_constant=20.0)
        for u in ues:
            rb_totals[u] += alloc.rb_count(u)
    assert jain_fairness(list(rb_totals.values())) >= 0.95
