"""Round-robin and proportional-fair downlink scheduling on the RB grid.

RR is cyclic RB assignment with a cursor that persists across TTIs and
never looks at the channel. PF grants each RB to the UE with the largest
rate / average throughput; the average is an EWMA updated once per TTI.
"""

from dataclasses import dataclass, field

import numpy as np


class SchedulerError(ValueError):
    pass


@dataclass
class RbGrid:
    """Frequency grid: S = n_rb sub-bands of rb_bandwidth Hz each."""
    n_rb: int
    rb_bandwidth: float = 180e3

    def __post_init__(self):
        if self.n_rb < 1:
            raise SchedulerError("n_rb must be >= 1")
        if self.rb_bandwidth <= 0:
            raise SchedulerError("rb_bandwidth must be > 0")

    @property
    def s(self):
        return self.n_rb


@dataclass
class SchedulerState:
    """Per-cell persistent scheduling state."""
    avg_throughput: dict = field(default_factory=dict)  # ue_id -> bits/TTI EWMA
    rr_cursor: int = 0

    @classmethod
    def fresh(cls, ue_ids, initial_throughput):
        if initial_throughput <= 0:
            raise SchedulerError("initial average throughput must be > 0")
        return cls(avg_throughput={u: float(initial_throughput)
                                   for u in ue_ids})


@dataclass
class Allocation:
    """One TTI's grant map: rb_to_ue[rb] = ue_id."""
    rb_to_ue: np.ndarray

    def rb_count(self, ue_id):
        return int(np.count_nonzero(self.rb_to_ue == ue_id))


def schedule_rr(ues, grid, state):
    """Cyclic RB assignment, channel-independent.

    UEs are served in ascending ue_id order starting from the persistent
    cursor; the cursor advances by the number of RBs granted modulo the UE
    count, so long-run RB shares are exactly equal.
    """
    ues = sorted(ues)
    if not ues:
        raise SchedulerError("schedule_rr needs at least one UE")
    n = len(ues)
    idx = (state.rr_cursor + np.arange(grid.n_rb)) % n
    state.rr_cursor = (state.rr_cursor + grid.n_rb) % n
    return Allocation(rb_to_ue=np.asarray(ues, dtype=int)[idx])


def schedule_pf(ues, grid, per_rb_rates, state):
    """Proportional fair: per RB, argmax rate / avg_throughput.

    ``per_rb_rates`` maps ue_id -> length-n_rb achievable bits. Ties go to
    the lowest ue_id. The average-throughput state is NOT updated here; call
    :func:`update_average_throughput` once per TTI after the grants land.
    """
    ues = sorted(ues)
    if not ues:
        raise SchedulerError("schedule_pf needs at least one UE")
    rates = np.empty((len(ues), grid.n_rb))
    for row, ue in enumerate(ues):
        if ue not in per_rb_rates:
            raise SchedulerError(f"missing per-RB rates for ue {ue}")
        r = np.asarray(per_rb_rates[ue], dtype=float)
        if r.shape != (grid.n_rb,):
            raise SchedulerError(f"rate vector for ue {ue} must have n_rb entries")
        if np.any(r < 0):
            raise SchedulerError(f"negative rate for ue {ue}")
        avg = state.avg_throughput.get(ue)
        if avg is None or avg <= 0:
            raise SchedulerError(f"ue {ue} has no positive average throughput")
        rates[row] = r / avg
    # argmax takes the first (lowest ue_id) row on ties
    winners = np.argmax(rates, axis=0)
    return Allocation(rb_to_ue=np.asarray(ues, dtype=int)[winners])


def update_average_throughput(state, granted_bits, time_constant):
    """EWMA update for every tracked UE, scheduled or not:

        T(t+1) = (1 - 1/tc) T(t) + (1/tc) * bits_granted_this_tti
    """
    if time_constant < 1:
        raise SchedulerError("time_constant must be >= 1")
    decay = 1.0 - 1.0 / time_constant
    gain = 1.0 / time_constant
    for ue in state.avg_throughput:
        state.avg_throughput[ue] = (decay * state.avg_throughput[ue]
                                    + gain * float(granted_bits.get(ue, 0.0)))
    return state
