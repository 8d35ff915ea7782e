"""Round-robin and proportional-fair downlink scheduling on the RB grid.

The state is arrays: the PF average throughput is indexed by UE id, the RR
cursor by cell, and a cell's UEs are an ascending array of UE ids. A grant
map ``rb_to_ue`` holds the UE id each RB goes to.

RR is cyclic RB assignment with a cursor that persists across TTIs and
never looks at the channel. PF grants each RB to the UE with the largest
rate / average throughput; the average is an EWMA updated once per TTI.
"""

import numpy as np


class SchedulerError(ValueError):
    pass


def _check_ues(ues, name):
    ues = np.asarray(ues)
    if ues.ndim != 1 or ues.size == 0:
        raise SchedulerError(f"{name} needs at least one UE")
    if np.any(ues[1:] <= ues[:-1]):
        raise SchedulerError(f"{name}: ue ids must be strictly ascending")
    return ues


def schedule_rr(ues, n_rb, cursor):
    """Cyclic RB assignment, channel-independent: ``(rb_to_ue, cursor)``.

    UEs are served in ascending id order starting from the persistent
    cursor; the returned cursor has advanced by the number of RBs granted
    modulo the UE count, so long-run RB shares are exactly equal.
    """
    ues = _check_ues(ues, "schedule_rr")
    if n_rb < 1:
        raise SchedulerError("n_rb must be >= 1")
    n = len(ues)
    return ues[(cursor + np.arange(n_rb)) % n], (cursor + n_rb) % n


def schedule_pf(ues, rates, avg):
    """Proportional fair: per RB, argmax rate / average throughput.

    ``rates`` is (len(ues), n_rb) achievable bits and ``avg`` the (len(ues),)
    average throughputs, both row-aligned with ``ues``. Ties go to the
    lowest row, which is the lowest ue id. The averages are NOT updated
    here; call :func:`update_average_throughput` once per TTI after the
    grants land.
    """
    ues = _check_ues(ues, "schedule_pf")
    rates = np.asarray(rates, dtype=float)
    avg = np.asarray(avg, dtype=float)
    if rates.ndim != 2 or rates.shape[0] != len(ues) or rates.shape[1] < 1:
        raise SchedulerError(
            f"rates must be (n_ues={len(ues)}, n_rb), got {rates.shape}")
    if avg.shape != ues.shape:
        raise SchedulerError(
            f"avg must be (n_ues={len(ues)},), got {avg.shape}")
    bad = ~(rates >= 0)
    if bad.any():
        raise SchedulerError(
            f"negative or NaN rate for ue {ues[bad.any(axis=1)][0]}")
    bad = ~(avg > 0)
    if bad.any():
        raise SchedulerError(
            f"ue {ues[bad][0]} has no positive average throughput")
    return ues[np.argmax(rates / avg[:, None], axis=0)]


def update_average_throughput(avg, granted, time_constant):
    """EWMA update for every UE, scheduled or not; returns the new averages:

        T(t+1) = (1 - 1/tc) T(t) + (1/tc) * bits_granted_this_tti
    """
    if time_constant < 1:
        raise SchedulerError("time_constant must be >= 1")
    avg = np.asarray(avg, dtype=float)
    granted = np.asarray(granted, dtype=float)
    if granted.shape != avg.shape:
        raise SchedulerError(
            f"granted must match avg's shape {avg.shape}, got {granted.shape}")
    return (1.0 - 1.0 / time_constant) * avg \
        + (1.0 / time_constant) * granted
