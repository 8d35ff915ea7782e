"""Downlink system simulation: single runs, sweeps, and the results table.

One run wires the other modules into the per-TTI loop:

    channel -> scheduling on the CSI of t-1 -> one pass over UE blocks
    (interference, rates as the CSI of t, precoder choice)
    -> throughput accounting -> average-throughput update

Each UE attaches once, to the cell with the strongest wideband power (ties
to the lowest cell id), and keeps its drop position: velocity enters the
run only through the Doppler shift.

Per-UE and per-cell state is arrays indexed by id, from the drop (UE
positions and drop cells) to the scheduler: one proportional-fair average
throughput per UE, one round-robin cursor per cell, and for each non-empty
serving cell the ascending array of its UE ids. Each TTI the cells fill one
(cell, RB) grant map, and the average throughput is updated once over all
UEs.

Link adaptation at TTI t uses CSI measured at t-1: per-RB rate reports
refresh every TTI, precoders every ``csi_period_tti``. That feedback lag is
how mobility erodes throughput: the faster the channel decorrelates, the
staler every scheduling and rate decision is. TTI 0 bootstraps against
isotropic equal-power transmission from every cell.

Cross-polarized receivers additionally lose carrier coherence on the
unintended polarization plane; the decohered fraction of every arriving
signal is re-injected as diffuse self-interference (covariance scaled by
the inverse coherent fraction), so their SINR degrades smoothly with
velocity even before CSI staleness bites.

Every random draw comes from a stream keyed by (seed, purpose, cell, ue),
so runs differing only in velocity, polarization or scheduler share their
drop geometry, shadowing and fading sinusoids: sweep axes are compared
under common random numbers. The seed words of a run's shadowing and
fading streams are hashed in one pass (:mod:`mmwsim.streams`), to exactly
the ``SeedSequence`` -> ``PCG64`` state numpy would give each key. The
fading model is the channel bank of :mod:`mmwsim.channel`; this module
holds the link set it runs on and the link kernels that read its channel.

The link layer is one pass a TTI over contiguous UE blocks
(``_Group.measure``). For each block it mixes the channel once; for each
polarization it reads the block's receive-port coupling from the bank,
couples the serving links, and then, lane by lane, computes the
interference covariances, the rates and, when precoders are updated, the
codebook choice, whose candidate products the lanes of one polarization
share. Per-link, per-(UE, RB) and per-candidate arrays so exist for one
block at a time, in buffers made once per group; only per-UE and per-cell
results span the network, and scheduling, accounting and the average
throughput stay network-wide.

Sweep points that differ only in scheduler and polarization (the points
of one (velocity, seed)) run in lockstep as lanes of one group. The group
is built once: layout, drop, gains, link set, channel bank, UE blocks,
the link kernels with their codebook, and the block buffers. Each TTI the
bank advances once and each block's channel is mixed once; only the
receive-port coupling is made per polarization, one block at a time, and
applied cell by cell as each lane precodes, so no coupled copy of a block
is kept. At f_d = 0 the channel cannot change, and only the bank knows it:
it keeps only its sinusoids' sums and mixes each block once per run. A
lane keeps per-UE and per-cell arrays (precoders, CSI rates, precoder map,
throughput averages, round-robin cursors, granted bits) and one block's
interference covariances. Lanes of one polarization share the isotropic
TTI-0 bootstrap, each keeping its own copy. ``run_simulation`` is the
one-lane case, and every lane's record equals it.

Each lane measures only its demand: the (UE, RB) pairs something reads
after the TTI's grants. Accounting and the allocation trace read the
grants, a precoder update after the TTI reads every UE's ``select_rb``
rows, and proportional fair's next ``schedule`` reads every rate. So a
proportional-fair lane before its last TTI and the bootstrap get every
pair, and every other lane gets covariances at its pairs and rates at its
grants only. Every step is per matrix or elementwise, so a subset of
pairs gets the bits the whole block gives it; nothing reads the others.

Rewrites of the link layer must keep every KPI bit-identical, not merely
close. Proportional-fair scheduling turns a last-bit change in one rate
into a different RB grant, and the throughput averages carry it forward:
a float64 Cholesky solve in place of ``np.linalg.inv`` in ``rates`` moves
the small-preset PF/LPOL/120 kmph/seed-1 throughput by 4.5e-3, and the
same point under RR by 5e-8. The golden records and the benchmark
reference are tied to these exact floating-point operations, including
the OpenBLAS kernels that run them. So speed comes from issuing the same
operations more cheaply: stacking the matrices that share a right-hand
factor into one gemm (each row of a gemm gets the same bits whatever the
row count), keeping every gemm small enough that OpenBLAS runs it on
the calling thread, and replaying ``np.add.reduceat``'s additions in its
own order over whole arrays (``_segment_sums``). ``b @ b^H`` per matrix
and ``np.linalg.inv`` are kept wherever their results reach a rate or a
pick, because their stacked or re-associated forms change bits.

Precoder selection is the one stage whose arithmetic is free: only the
chosen entry's index leaves it. So it screens every codebook entry with
an elementwise, batch-last Cholesky MMSE in complex128
(:func:`mmwsim.link.mmse_batch_last`), whose bits differ from the
per-matrix inverse's, and scores exactly, with the per-matrix own
covariance and ``inv`` as before, only the entries whose screened score
is near the UE's best (``_SCREEN_BAND``). The entries it drops are far
below the exact best, so the pick is the one a whole exact evaluation
gives; a UE whose exact scores stray from the screened ones is scored
exactly on every entry.

The link layer runs on one thread: ``matmul`` and ``inv`` release the
GIL, yet two stacked products of tiny matrices took longer side by side
than one after the other, and ``inv`` gained little. Only the channel
bank's build runs on threads (see :mod:`mmwsim.channel`).
"""

import hashlib
import json
import logging
import math
import numbers
import os
import time
from contextlib import ExitStack
from dataclasses import dataclass, field

import numpy as np

from ._version import __version__
from .antenna import combined_gain
from .channel import SERIAL_GEMM_MNK, _ChannelBank, _front, \
    doppler_frequency, los_probability, pathloss_uma
from .config import TTI_DURATION, expand_sweep, scenario_to_text
from .deployment import SECTORS_PER_SITE, build_hex_layout, drop_ues, \
    dump_layout_csv
from .kpi import KpiRecord, average_ue_throughput, jain_fairness, \
    spectral_efficiency
from .link import build_codebook, mmse_batch_last, mmse_sinr_from_covariance, \
    noise_power_w, sinr_to_rate, stack_codebook
from .scheduler import SchedulerError, schedule_pf, schedule_rr, \
    update_average_throughput
from .streams import DROP_STREAM, LARGE_SCALE_STREAM, keyed_streams

log = logging.getLogger("mmwsim")


class EngineError(RuntimeError):
    """A simulation run or sweep could not proceed."""


# wideband precoder selection samples every tenth RB
_SELECT_RB_STRIDE = 10
# later codebook entries must beat the incumbent by this much (ties keep
# the lowest rank, then the lowest entry index)
_SELECT_MARGIN = 1e-12
# selection scores exactly only the entries whose screened score is within
# this share of the UE's best screened score (of 1, if that is smaller).
# Screened and exact scores differed by at most 2.9e-4 of the best over the
# small trend sweep and a paper-scale bootstrap: the band is 100 times that
_SCREEN_BAND = 3e-2
# a selection whose best and runner-up exact scores are closer than this
# share of the best is counted as a near tie
_TIE_GAP = 1e-6
# a UE block holds about this many bytes of per-link channel matrices, and
# at most this many of the selection screen's complex128 covariances (one
# per codebook entry, sampled RB and UE); a TTI's per-link arrays exist for
# one block at a time, and the block's buffers come to about four budgets
# (4.2 MiB at `small` and `paper`)
_BLOCK_BYTES = 1 << 20


def _selects(cfg, t):
    """Whether precoders are selected after TTI ``t``: every
    ``csi_period_tti``-th TTI, but not after the last, whose precoders
    nothing would use."""
    return (t + 1) % cfg.csi_period_tti == 0 and t < cfg.n_tti - 1


class _Clock:
    """Seconds per stage, from ``time.perf_counter`` deltas: ``lap(stage)``
    books the time since the last lap, or since ``start``."""

    def __init__(self):
        self.seconds = {}
        self.start()

    def start(self):
        self.last = time.perf_counter()

    def lap(self, stage):
        now = time.perf_counter()
        self.seconds[stage] = self.seconds.get(stage, 0.0) + now - self.last
        self.last = now


def _rng(*key):
    return np.random.default_rng(np.random.SeedSequence(key))


@dataclass
class _Linkset:
    """Static per-run link bookkeeping.

    Links are the (cell, ue) pairs modelled explicitly: for every UE its
    serving cell plus the strongest interferers by wideband power, ``n_keep``
    links in all. They are stored grouped by UE, serving link first, so UE
    u owns links [u * n_keep, (u + 1) * n_keep) and covariance accumulation
    is a segmented sum.
    """
    cell: np.ndarray          # (n_links,) cell id per link
    ue: np.ndarray            # (n_links,) ue id per link
    n_keep: int               # links per ue
    serving: np.ndarray       # (n_ues,) serving cell id
    amplitude: np.ndarray     # (n_links,) linear field amplitude
    los: np.ndarray           # (n_links,) bool

    @property
    def n_links(self):
        return self.cell.shape[0]


@dataclass
class _UeBlock:
    """A contiguous run of UEs and the links they own."""
    ues: slice
    links: slice
    cells: list               # (cell id, block-local link indices) per cell


def _ue_blocks(links, step):
    """Contiguous UE blocks of ``step`` UEs each, the last one shorter."""
    n_ues, n_keep = links.serving.shape[0], links.n_keep
    blocks = []
    for lo in range(0, n_ues, step):
        hi = min(lo + step, n_ues)
        lk = slice(lo * n_keep, hi * n_keep)
        cell = links.cell[lk]
        blocks.append(_UeBlock(
            ues=slice(lo, hi), links=lk,
            cells=[(c, np.flatnonzero(cell == c)) for c in np.unique(cell)]))
    return blocks


def _wideband_gain_db(cfg, layout, xy):
    """Pathloss + antenna gain + shadowing, dB, for every (cell, ue), from
    the (n_ues, 2) UE positions ``xy``.

    Shadowing is drawn per link from the (seed, cell, ue)-keyed stream, so
    it is identical across velocities, polarizations and schedulers.
    """
    bore = layout.boresight_deg
    n_cells, n_ues = len(bore), len(xy)
    site_xy = layout.site_xy[np.arange(n_cells) // SECTORS_PER_SITE]

    dx = xy[None, :, 0] - site_xy[:, 0, None]
    dy = xy[None, :, 1] - site_xy[:, 1, None]
    d2d = np.hypot(dx, dy)
    az_rel = (np.degrees(np.arctan2(dy, dx)) - bore[:, None] + 180.0) \
        % 360.0 - 180.0
    elev = np.degrees(np.arctan2(cfg.bs_height - cfg.ue_height, d2d))
    gain = combined_gain(cfg, az_rel, elev)

    # each (cell, ue) stream draws uniform() (which is random()) for LOS,
    # then normal(0, sigma) (which is 0.0 + sigma * standard_normal()) for
    # shadowing
    cell, ue = np.divmod(np.arange(n_cells * n_ues), n_ues)
    streams = keyed_streams(cfg.seed, LARGE_SCALE_STREAM, cell, ue)
    draws = np.fromiter(
        ((stream.random(), stream.standard_normal()) for stream in streams),
        dtype=(float, 2), count=n_cells * n_ues).reshape(n_cells, n_ues, 2)
    los = draws[..., 0] < los_probability(d2d)
    sigma = np.where(los, cfg.shadowing_sigma_los_db,
                     cfg.shadowing_sigma_nlos_db)
    shadow = 0.0 + sigma * draws[..., 1]

    pl = pathloss_uma(d2d, cfg.carrier_frequency, cfg.bs_height,
                      cfg.ue_height, los)
    return gain - pl - shadow, los


def _build_linkset(cfg, gain_db, los):
    """Attach every UE and keep its strongest interferers explicit.

    Each UE's cells are ranked by wideband received power, ties to the
    lowest cell id; the first is its serving cell, the next ones its
    explicit interferers.
    """
    n_cells, n_ues = gain_db.shape
    p_tx_dbm = 10.0 * math.log10(cfg.bs_tx_power * 1e3)
    rx_dbm = p_tx_dbm + gain_db
    cells = np.broadcast_to(np.arange(n_cells)[:, None], rx_dbm.shape)
    n_keep = min(n_cells, cfg.n_strongest_interferers + 1)
    order = np.lexsort((cells, -rx_dbm), axis=0)[:n_keep]

    cell_arr = order.T.ravel()
    ue_arr = np.repeat(np.arange(n_ues), n_keep)
    return _Linkset(
        cell=cell_arr,
        ue=ue_arr,
        n_keep=n_keep,
        serving=order[0],
        amplitude=10.0 ** (gain_db[cell_arr, ue_arr] / 20.0),
        los=los[cell_arr, ue_arr])


def _stacked_matmul(a, p, out=None):
    """``a @ p`` where each matrix of ``p`` is shared by a stack of ``a``,
    into the C-contiguous ``out`` if given.

    ``a`` is (..., n_mat, m, n) and ``p`` is (..., n, k), the leading axes
    broadcast against each other. The n_mat matrices are stacked into one
    (n_mat * m)-row gemm per matrix of ``p``: OpenBLAS gives each row of a
    gemm the same bits whatever the row count, so this equals the n_mat
    separate products exactly. Row vectors (m = 1) are the exception: numpy
    issues a vector-matrix product as a gemv, whose bits differ from a
    gemm's, so they keep one product each.
    """
    if a.shape[-2] == 1:
        return np.matmul(a, p[..., None, :, :], out=out)
    if out is not None:
        out = out.reshape(out.shape[:-3] + (-1, out.shape[-1]))
    rows = np.matmul(a.reshape(a.shape[:-3] + (-1, a.shape[-1])), p, out=out)
    return rows.reshape(rows.shape[:-2] + a.shape[-3:-1] + p.shape[-1:])


def _fold(v, items):
    """The items ``v[:, i]`` for ``i`` in ``items`` (one at least), added
    left to right into a new array."""
    first, *rest = items
    if not rest:
        return v[:, first].copy()
    total = v[:, first] + v[:, rest[0]]
    for i in rest[1:]:
        total += v[:, i]
    return total


def _pairwise_sum(v, lo, m):
    """The sum over axis 1 of the complex items ``v[:, lo:lo + m]`` (m >= 1),
    as a new array, added in the order of numpy's ``pairwise_sum``: left to
    right below 4 items; up to 64 items, four accumulators stepped by 4,
    combined as (r0 + r1) + (r2 + r3), then the remainder left to right;
    above that, the two halves numpy splits the items into, each summed
    this way."""
    if m < 4:
        return _fold(v, range(lo, lo + m))
    if m <= 64:
        end = lo + m - m % 4
        total = _fold(v, range(lo, end, 4))
        total += _fold(v, range(lo + 1, end, 4))
        pair = _fold(v, range(lo + 2, end, 4))
        pair += _fold(v, range(lo + 3, end, 4))
        total += pair
        for i in range(end, lo + m):
            total += v[:, i]
        return total
    half = (m - m % 8) // 2
    total = _pairwise_sum(v, lo, half)
    total += _pairwise_sum(v, lo + half, m - half)
    return total


def _segment_sums(g, n):
    """``np.add.reduceat(g, np.arange(0, len(g), n), axis=0)`` to the last
    bit, for a ``len(g)`` that is a multiple of ``n``.

    reduceat sums each segment element by element: the segment's first
    item plus the pairwise sum of the rest, one small inner loop per
    element of the trailing axes. The same additions, in the same order,
    on strided views of every segment at once take a few whole-array adds
    (a + b and b + a are the same float, so sums are added in place).
    """
    v = g.reshape((-1, n) + g.shape[1:])
    if n == 1:
        return v[:, 0].copy()
    total = _pairwise_sum(v, 1, n - 1)
    total += v[:, 0]
    return total


def _by_pol(lanes):
    """``lanes`` by polarization, in order."""
    pols = dict.fromkeys(lane.pol for lane in lanes)
    return {pol: [lane for lane in lanes if lane.pol == pol] for pol in pols}


class _Group:
    """The shared part of a run, built once for all the lanes of a group.

    A group's lanes are runs whose configs differ only in ``scheduler`` and
    ``ue_polarization``; under common random numbers they share the layout,
    drop, gains, link set, counted UEs, channel bank, UE blocks, the link
    kernels with their codebook, and the block buffers: ``work`` and the
    serving channel ``h_serv`` of one block, which each polarization
    rewrites in turn. A block holds about ``_BLOCK_BYTES`` of per-link
    channel matrices, and at most that many of the selection screen's
    complex128 covariances, and its stacked candidate products stay on
    the calling thread; ``work`` comes to about four budgets. ``clock``
    books each stage's seconds and ``select_stats`` counts precoder
    selection's decisions, exactly scored entries (survivors), fallbacks
    and near ties, and its largest screen-vs-exact gap among survivors;
    ``_run_lanes`` logs both at debug level.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self.clock = _Clock()
        self.select_stats = dict.fromkeys(
            ("decisions", "survivors", "fallbacks", "near ties"), 0)
        self.select_stats["screen gap"] = 0.0
        self.layout = build_hex_layout(
            cfg.n_site_rings, cfg.inter_site_distance, cfg.azimuth_offset_deg)
        self.n_cells = len(self.layout.boresight_deg)
        self.xy, self.drop_cell = drop_ues(
            self.layout, cfg, _rng(cfg.seed, DROP_STREAM))
        n_ues = len(self.xy)

        gain_db, los = _wideband_gain_db(cfg, self.layout, self.xy)
        self.links = links = _build_linkset(cfg, gain_db, los)

        self.counted = np.arange(n_ues)
        if not cfg.collect_all_sectors:
            # the center site's cells are 0..SECTORS_PER_SITE-1
            self.counted = np.flatnonzero(links.serving < SECTORS_PER_SITE)
        if self.counted.size == 0:
            raise EngineError("no UEs attached to the collected cells")

        f_d = doppler_frequency(cfg.ue_velocity, cfg.carrier_frequency)
        self.clock.start()
        self.bank = _ChannelBank(cfg, links, f_d)
        self.clock.lap("bank build")

        self.noise = noise_power_w(cfg.rb_bandwidth, cfg.noise_figure)
        padded, ranks = stack_codebook(build_codebook(cfg.n_tx), cfg.n_tx)
        p_rb = cfg.bs_tx_power / cfg.n_rb
        self.cand = (padded * np.sqrt(p_rb / ranks)[:, None, None]) \
            .astype(np.complex64)
        self.max_rank = padded.shape[2]
        self.select_rb = np.arange(0, cfg.n_rb, _SELECT_RB_STRIDE)
        self.iso = (math.sqrt(p_rb / cfg.n_tx)
                    * np.eye(cfg.n_tx, self.max_rank)).astype(np.complex64)

        n_sel, n_rx, n_tx = len(self.select_rb), cfg.n_rx, cfg.n_tx
        step = max(1, min(
            _BLOCK_BYTES // (links.n_keep * cfg.n_rb * n_rx * n_tx * 8),
            _BLOCK_BYTES // (len(self.cand) * n_sel * n_rx * n_rx * 16),
            SERIAL_GEMM_MNK // (n_sel * n_rx * n_tx * self.max_rank)))
        self.blocks = _ue_blocks(links, step)
        self.block_ues = min(step, n_ues)
        self.work = self._work()
        # the serving channel keeps the channel bank's RB-innermost layout
        self.h_serv = np.empty((self.block_ues, n_rx, n_tx, cfg.n_rb),
                               dtype=np.complex64).transpose(0, 3, 1, 2)

        # the non-empty serving cells, each with its UE ids in ascending order
        self.active = np.unique(links.serving)
        self.active_ues = [np.flatnonzero(links.serving == c)
                           for c in self.active]

    def measure(self, lanes, select=False, bootstrap=False, gains=None):
        """One pass over the UE blocks: measure ``lanes`` at the present TTI
        and, with ``select``, pick their precoders.

        Each block's channel is mixed once. For each polarization, the
        bank gives the block's coupling, and the serving links are coupled
        into ``h_serv``. Then, lane by lane, the block's interference
        covariances go into the lane's ``r_int`` and its rates into its
        ``csi_rates`` (see ``interference`` and ``rates``). With
        ``select``, each polarization's candidate products are made once a
        block, and each of its lanes picks its ``p_own`` rows. The
        bootstrap precodes isotropically and rates the precoders it picks;
        a TTI rates those it granted with, then picks. ``gains`` (n_ues,),
        if given, takes each UE's mean serving gain at ``lanes[0].pol``.
        """
        by_pol = _by_pol(lanes)
        # equal-power identity precoding everywhere
        psched = np.broadcast_to(self.iso, (self.n_cells, self.cfg.n_rb)
                                 + self.iso.shape) if bootstrap else None
        n_keep = self.links.n_keep
        lap = self.clock.lap
        self.clock.start()
        for block in self.blocks:
            n = block.ues.stop - block.ues.start
            h = self.bank.current(block.links, self.work)
            for pol, same in by_pol.items():
                port = self.bank.coupling(pol, block.links)[:, None, None]
                h_serv = np.multiply(h[::n_keep], port[::n_keep],
                                     out=self.h_serv[:n])
                if gains is not None and pol == lanes[0].pol:
                    gains[block.ues] = [np.mean(abs(x) ** 2) for x in h_serv]
                lap("channel")
                for lane in same:
                    self.interference(lane, h, port, block, psched)
                    lap("interference")
                    if not bootstrap:
                        self.rates(lane, block, h_serv)
                        lap("rates")
                if select:
                    self.select(same, block, h_serv)
                for lane in same if bootstrap else ():
                    self.rates(lane, block, h_serv)
                    lap("rates")

    def bootstrap(self, lanes):
        """The CSI bootstrap: each lane's first precoders and CSI rates. It
        precodes isotropically, whatever the scheduler, so the first lane
        of each polarization measures, and the others take copies."""
        by_pol = _by_pol(lanes)
        self.measure([same[0] for same in by_pol.values()], select=True,
                     bootstrap=True)
        for first, *rest in by_pol.values():
            for lane in rest:
                lane.p_own[:] = first.p_own
                lane.csi_rates[:] = first.csi_rates

    def _work(self):
        """Flat complex64 buffers, of even sizes, with room for any block's
        bank buffers (see ``_ChannelBank.buffers``), precoded links ``b``,
        their conjugates ``bh`` and products ``g``, or its selection arrays:
        the candidates' products in ``b``, followed by the screen's
        whitened columns, and complex128 views of ``g`` for the products'
        own covariances and of ``bh`` for the screen's covariances."""
        cfg = self.cfg
        n_links = max(b.links.stop - b.links.start for b in self.blocks)
        n_sel = self.block_ues * len(self.cand) * len(self.select_rb) \
            * cfg.n_rx
        n = max(n_links * cfg.n_rb * cfg.n_rx, n_sel)
        sizes = {"b": max(n, 3 * n_sel + 1) * self.max_rank,
                 "g": max(n, 2 * n_sel) * cfg.n_rx,
                 "bh": max(n * self.max_rank, 2 * n_sel * cfg.n_rx)}
        return {**self.bank.buffers(n_links), **{
            k: np.empty(m + m % 2, np.complex64) for k, m in sizes.items()}}

    def interference(self, lane, h, port, block, psched=None):
        """Write ``lane``'s per-(ue, rb) interference covariances of one UE
        block, own-cell signal excluded, into the front of its ``r_int``:
        every entry, or its ``pairs`` only, leaving the others as they are.

        ``h * port`` is the block's per-link channel, with ``port`` the
        receive-port coupling (n, 1, 1, n_tx), and ``psched`` (the lane's
        own unless given) maps (cell, rb) to the scaled precoder in use.
        The links of one cell are coupled and precoded as one stacked
        product per RB; a pair's links one matrix at a time, at its RB,
        which gives the rows of the stacked product to the last bit.
        """
        psched = lane.psched if psched is None else psched
        r_int = lane.r_int[:block.ues.stop - block.ues.start]
        b = self.work["b"]
        if lane.pairs is None:
            b = _front(b, h.shape[:-1] + (self.max_rank,))
            for c, idx in block.cells:
                h_c = h[idx]
                h_c *= port[idx]
                b[idx] = _stacked_matmul(h_c.swapaxes(0, 1),
                                         psched[c]).swapaxes(0, 1)
            self._covariance(b, r_int)
            return
        ue, rb = lane.pairs
        lo, hi = np.searchsorted(ue, [block.ues.start, block.ues.stop])
        ue, rb = ue[lo:hi], rb[lo:hi]
        n_keep = self.links.n_keep
        link = (ue - block.ues.start)[:, None] * n_keep + np.arange(n_keep)
        h_p = h[link, rb[:, None]]
        h_p *= port[link, 0]
        cell = self.links.cell[block.links][link]
        b = np.matmul(h_p, psched[cell, rb[:, None]], out=_front(
            b, h_p.shape[:-1] + (self.max_rank,)))
        r_int[ue - block.ues.start, rb] = self._covariance(
            b.reshape((-1,) + b.shape[2:]))

    def _covariance(self, b, out=None):
        """Interference covariance per UE from its precoded links ``b``,
        ``n_keep`` consecutive ones per UE, serving link first. Because a
        UE's own hypothetical grant replaces whatever its serving cell is
        transmitting, the serving link's contribution is subtracted from
        the segmented sum over each UE's link group."""
        bh = np.conjugate(b, out=_front(self.work["bh"], b.shape))
        g = np.matmul(b, bh.swapaxes(-1, -2), out=_front(
            self.work["g"], b.shape[:-1] + b.shape[-2:-1]))
        total = _segment_sums(g, self.links.n_keep)
        return np.subtract(total, g[::self.links.n_keep],
                           out=total if out is None else out)

    def _with_noise(self, cov, sn_scale):
        """Scale by the self-noise factor, add thermal noise, go double."""
        out = cov.astype(np.complex128) * sn_scale
        idx = np.arange(out.shape[-1])
        out[..., idx, idx] += self.noise
        return out

    def rates(self, lane, block, h_serv):
        """Write ``lane``'s truncated-Shannon bits for one RB grant of the
        UEs of ``block`` into its ``csi_rates``: whole rows, or its grants
        only when it has ``pairs``."""
        lo, hi = block.ues.start, block.ues.stop
        r_int = lane.r_int[:hi - lo]
        if lane.pairs is None:
            ue, rb = slice(lo, hi), slice(None)
            eff = _stacked_matmul(h_serv, lane.p_own[ue])
        else:
            cell, rb = np.nonzero((lane.rb_to_ue >= lo)
                                  & (lane.rb_to_ue < hi))
            ue = lane.rb_to_ue[cell, rb]
            eff = h_serv[ue - lo, rb] @ lane.p_own[ue]
            r_int = r_int[ue - lo, rb]
        own = eff @ eff.conj().swapaxes(-1, -2)
        cov = self._with_noise(r_int + own, lane.sn_scale)
        sinr = mmse_sinr_from_covariance(eff, cov)
        cfg = self.cfg
        lane.csi_rates[ue, rb] = sinr_to_rate(
            sinr, cfg.rb_bandwidth, TTI_DURATION, cfg.shannon_efficiency,
            cfg.spectral_efficiency_cap).sum(axis=-1)

    def select(self, lanes, block, h_serv):
        """Wideband codebook choice per UE of ``block`` from a decimated RB
        sample: set the block's rows of each lane's ``p_own`` from its
        ``r_int``. The lanes are of one polarization, so they share the
        block's serving channel ``h_serv``, ``sn_scale`` and every candidate
        product. Each lane screens every entry (``_screen``) and scores
        exactly only the entries near each UE's screened best
        (``_best_entry``)."""
        n = block.ues.stop - block.ues.start
        eff, own = self._candidates(h_serv[:, self.select_rb])
        for lane in lanes:
            base = self._with_noise(lane.r_int[:n, self.select_rb],
                                    lane.sn_scale)
            screen = self._screen(eff, own, base, lane.sn_scale)
            self.clock.lap("select screen")
            lane.p_own[block.ues] = self.cand[self._best_entry(
                eff, base, lane.sn_scale, screen)]
            self.clock.lap("select exact")

    def _candidates(self, h_sel):
        """Every codebook entry's precoded channel E, complex64 in the ``b``
        buffer, axes (ue, entry, rb, rx, layer) over (entry, rb, ue) memory
        order, as numpy gave the per-matrix form, and the lower triangle of
        its own covariance E E^H, complex128 with the batch axes last,
        (rx, rx, entry, rb, ue), in ``g``."""
        n_ues, n_sel, n_rx, n_tx = h_sel.shape
        n_cand, m = len(self.cand), self.max_rank
        rows = h_sel.swapaxes(0, 1).reshape(1, -1, n_rx, n_tx)
        eff = _stacked_matmul(rows, self.cand, _front(
            self.work["b"], (n_cand, n_sel * n_ues, n_rx, m))) \
            .reshape(n_cand, n_sel, n_ues, n_rx, m).transpose(2, 0, 1, 3, 4)
        e = self._columns(eff)
        np.copyto(e, eff.transpose(3, 4, 1, 2, 0))
        own = _front(self.work["g"].view(np.complex128),
                     (n_rx, n_rx) + e.shape[2:])
        for j in range(n_rx):       # column by column
            e_j = np.conjugate(e[j])
            col = np.multiply(e[j:, 0], e_j[0], out=own[j:, j])
            for k in range(1, m):
                col += e[j:, k] * e_j[k]
        return eff, own

    def _columns(self, eff):
        """A complex128 (rx, layer, entry, rb, ue) array in the ``b``
        buffer after the candidates' products ``eff``."""
        n_ues, n_cand, n_sel, n_rx, m = eff.shape
        start = eff.size + eff.size % 2
        return _front(self.work["b"][start:].view(np.complex128),
                      (n_rx, m, n_cand, n_sel, n_ues))

    def _screen(self, eff, own, base, sn_scale):
        """Every entry's screened score, (ue, entry): the sum over sampled
        RBs and layers of -log2(1 - u), with u from ``mmse_batch_last`` on
        the covariance sn_scale E E^H + ``base``, in the front of ``bh``."""
        n_rx = own.shape[0]
        cov = _front(self.work["bh"].view(np.complex128), own.shape)
        base = np.ascontiguousarray(base.transpose(2, 3, 1, 0))[:, :, None]
        for j in range(n_rx):       # the lower triangle, column by column
            col = np.multiply(own[j:, j], sn_scale, out=cov[j:, j])
            col += base[j:, j]
        u = mmse_batch_last(eff.transpose(3, 4, 1, 2, 0), cov,
                            self._columns(eff))
        u = np.log2(1.0 - np.clip(u, 0.0, 1.0 - 1e-15, out=u), out=u)
        return -u.sum(axis=(0, 2)).T

    def _best_entry(self, eff, base, sn_scale, screen):
        """Each UE's best entry by its exact score (``_score``), picked as
        over every entry.

        Only the entries whose ``screen`` score is within ``_SCREEN_BAND``
        times max(|best|, 1) of the UE's best are scored exactly; the others
        score -inf. The screen errs far less than the band, so no entry it
        drops is within ``_SELECT_MARGIN`` of the exact best. A UE whose
        exact scores differ from the screened ones by more than a quarter
        of the band, or whose screen is not finite, is scored exactly on
        every entry (a fallback).
        """
        best = screen.max(axis=1, keepdims=True)
        scale = np.maximum(abs(best), 1.0)
        keep = screen >= best - _SCREEN_BAND * scale
        score = np.full(screen.shape, -np.inf)
        self._score(score, keep, eff, base, sn_scale)
        err = np.where(keep, abs(score - screen) / scale, 0.0)
        off = ~np.isfinite(best[:, 0]) \
            | ~(err <= _SCREEN_BAND / 4).all(axis=1)
        self._score(score, off[:, None] & ~keep, eff, base, sn_scale)

        stats = self.select_stats
        stats["decisions"] += len(score)
        stats["survivors"] += int(keep.sum())
        stats["fallbacks"] += int(off.sum())
        stats["screen gap"] = max(stats["screen gap"], float(err.max()))
        if score.shape[1] > 1:
            top = np.sort(score, axis=1)[:, -2:]
            gap = (top[:, 1] - top[:, 0]) / np.maximum(abs(top[:, 1]), 1.0)
            stats["near ties"] += int(np.count_nonzero(gap < _TIE_GAP))

        best = score.max(axis=1, keepdims=True)
        return np.argmax(score >= best - _SELECT_MARGIN, axis=1)

    def _score(self, score, pairs, eff, base, sn_scale):
        """Write the exact scores of the (ue, entry) pairs set in ``pairs``
        into ``score``: complex64 own covariances and a complex128 MMSE per
        matrix, then the log2 rate sum over the sampled RBs and layers. A
        pair's arrays are laid out as in a whole (entry, ue, rb) stack, and
        every step is per matrix or elementwise, so each pair gets the bits
        it would get there."""
        ue, entry = np.nonzero(pairs)
        if ue.size == 0:
            return
        eff = eff[ue, entry]
        own = np.matmul(eff, np.conjugate(eff).swapaxes(-1, -2))
        cov = np.multiply(own, sn_scale,
                          out=np.empty(own.shape, np.complex128))
        cov += base[ue]
        sinr = mmse_sinr_from_covariance(eff, cov)
        score[ue, entry] = np.log2(1.0 + sinr).sum(axis=(1, 2))


class _Lane:
    """One run of a group: its link feedback and scheduler state, all
    per-UE or per-cell arrays, and its interference covariances of one
    UE block."""

    def __init__(self, cfg, group):
        n_ues, n_cells = len(group.xy), group.n_cells
        self.cfg = cfg
        self.pol = cfg.ue_polarization
        self.sn_scale = 1.0 / group.bank.coherent_fraction_sq(self.pol)
        self.r_int = np.empty((group.block_ues, cfg.n_rb, cfg.n_rx, cfg.n_rx),
                              dtype=np.complex64)
        # filled by the CSI bootstrap, then rewritten in place block by block
        self.p_own = np.empty((n_ues, cfg.n_tx, group.max_rank),
                              dtype=np.complex64)
        self.csi_rates = np.empty((n_ues, cfg.n_rb))
        # the (ue, rb) pairs measured this TTI, or None for all of them
        self.pairs = None
        # empty cells stay silent: only the active cells' rows are written
        self.psched = np.zeros((n_cells, cfg.n_rb, cfg.n_tx, group.max_rank),
                               dtype=np.complex64)
        # rb_to_ue[i, rb]: the UE that active cell i grants rb to
        self.rb_to_ue = np.empty((len(group.active), cfg.n_rb), dtype=int)
        self.avg = np.full(n_ues, cfg.pf_initial_throughput_bits)
        self.cursor = np.zeros(n_cells, dtype=int)
        self.total_bits = np.zeros(n_ues)

    def schedule(self, t, group):
        """Grant every RB of every active cell and precode the grants."""
        for i, (c, ues_c) in enumerate(zip(group.active, group.active_ues)):
            try:
                if self.cfg.scheduler == "RR":
                    self.rb_to_ue[i], self.cursor[c] = schedule_rr(
                        ues_c, self.cfg.n_rb, self.cursor[c])
                else:
                    self.rb_to_ue[i] = schedule_pf(
                        ues_c, self.csi_rates[ues_c], self.avg[ues_c])
            except SchedulerError as exc:
                raise EngineError(f"tti {t} cell {c}: {exc}") from exc
        self.psched[group.active] = self.p_own[self.rb_to_ue]
        self.pairs = self.demand(t, group)
        if self.pairs is not None:
            self.csi_rates.fill(np.nan)    # only the grants are measured

    def demand(self, t, group):
        """The (ue, rb) pairs, sorted by UE, whose covariance is read after
        this TTI's grants, or None when every pair is.

        Accounting reads the grants, a precoder update after this TTI reads
        every UE's ``select_rb`` rows, and proportional fair's next
        ``schedule`` reads every rate.
        """
        cfg = self.cfg
        if cfg.scheduler == "PF" and t < cfg.n_tti - 1:
            return None
        read = np.zeros((len(self.avg), cfg.n_rb), dtype=bool)
        read[self.rb_to_ue, np.arange(cfg.n_rb)] = True
        if _selects(cfg, t):
            read[:, group.select_rb] = True
        return np.nonzero(read)

    def account(self):
        """Count this TTI's granted bits from ``csi_rates``, which hold
        the grants' rates (only those, for a lane measured at ``pairs``)."""
        rbs = np.arange(self.cfg.n_rb)
        # each UE has one serving cell, so its grants add up in RB order
        # whatever order the cells come in
        granted = np.zeros(len(self.avg))
        np.add.at(granted, self.rb_to_ue, self.csi_rates[self.rb_to_ue, rbs])
        self.total_bits += granted
        self.avg = update_average_throughput(self.avg, granted,
                                             self.cfg.pf_time_constant_tc)

    def record(self, counted):
        cfg = self.cfg
        tp = self.total_bits[counted] / (cfg.n_tti * TTI_DURATION)
        return KpiRecord(
            scheduler=cfg.scheduler,
            polarization=cfg.ue_polarization,
            velocity_kmph=cfg.ue_velocity,
            seed=cfg.seed,
            avg_ue_throughput_bps=average_ue_throughput(tp),
            spectral_efficiency_bps_hz=spectral_efficiency(tp, cfg.bandwidth),
            fairness_index=jain_fairness(tp),
            n_ues=len(counted),
            bandwidth_hz=cfg.bandwidth)


def _run_lanes(cfgs, trace_dir=None):
    """Run the points ``cfgs``, which differ only in scheduler and
    polarization, in lockstep over one shared group; return their records
    in ``cfgs`` order. ``trace_dir`` traces the first lane."""
    cfg = cfgs[0]
    group = _Group(cfg)
    lanes = [_Lane(c, group) for c in cfgs]
    links = group.links

    for c in cfgs:
        log.info("run %s/%s v=%g seed=%d: %d cells, %d ues (%d counted), "
                 "%d links", c.scheduler, c.ue_polarization, c.ue_velocity,
                 c.seed, group.n_cells, len(group.xy), len(group.counted),
                 links.n_links)

    with ExitStack() as stack:
        alloc_trace = chan_trace = gains = None
        if trace_dir is not None:
            os.makedirs(trace_dir, exist_ok=True)
            dump_layout_csv(group.layout, os.path.join(trace_dir, "sites.csv"),
                            os.path.join(trace_dir, "cells.csv"))
            _dump_ue_csv(group.xy, group.drop_cell, links.serving,
                         cfg.ue_velocity, os.path.join(trace_dir, "ues.csv"))
            alloc_trace = stack.enter_context(
                open(os.path.join(trace_dir, "allocation.csv"), "w",
                     encoding="utf-8"))
            alloc_trace.write("tti,cell_id,rb,ue_id,granted_bits\n")
            chan_trace = stack.enter_context(
                open(os.path.join(trace_dir, "channel.csv"), "w",
                     encoding="utf-8"))
            chan_trace.write("tti,ue_id,serving_cell,mean_gain_db\n")
            gains = np.empty(len(group.xy), dtype=np.float32)

        try:
            group.bootstrap(lanes)
        except Exception as exc:
            raise EngineError(
                f"tti 0 (csi bootstrap): {type(exc).__name__}: {exc}"
            ) from exc

        clock = group.clock
        for t in range(cfg.n_tti):
            try:
                clock.start()
                if t > 0:
                    group.bank.advance()
                clock.lap("advance")
                for lane in lanes:
                    lane.schedule(t, group)
                clock.lap("schedule and account")
                group.measure(lanes, select=_selects(cfg, t), gains=gains)
                for lane in lanes:
                    lane.account()
                clock.lap("schedule and account")
            except EngineError:
                raise
            except Exception as exc:
                raise EngineError(
                    f"tti {t}: {type(exc).__name__}: {exc}") from exc

            if alloc_trace is not None:
                lane = lanes[0]
                for c, grants in zip(group.active, lane.rb_to_ue):
                    for rb, u in enumerate(grants):
                        alloc_trace.write(
                            f"{t},{c},{rb},{u},"
                            f"{lane.csi_rates[u, rb]:.6g}\n")
                for u in group.counted:
                    mg = 10.0 * math.log10(max(gains[u], 1e-300))
                    chan_trace.write(
                        f"{t},{u},{links.serving[u]},{mg:.6g}\n")

    _log_stages(cfg, group)
    return [lane.record(group.counted) for lane in lanes]


def _log_stages(cfg, group):
    """At debug level, one line: the group's seconds per stage and its
    precoder-selection counters."""
    if not log.isEnabledFor(logging.DEBUG):
        return
    stats = group.select_stats
    decisions = max(stats["decisions"], 1)
    log.debug(
        "group v=%g seed=%d: %s; select: %d decisions, %.2f survivors "
        "each, %d fallbacks, %.3g%% near ties (< %g), screen gap %.2g",
        cfg.ue_velocity, cfg.seed,
        ", ".join(f"{k} {v:.3f} s" for k, v in group.clock.seconds.items()),
        stats["decisions"], stats["survivors"] / decisions,
        stats["fallbacks"], 100.0 * stats["near ties"] / decisions, _TIE_GAP,
        stats["screen gap"])


def run_simulation(cfg, trace_dir=None):
    """Run one scenario point end to end and return its KPI record.

    KPIs aggregate the UEs served by the center site's three cells (all
    cells with ``collect_all_sectors``); the outer rings exist to generate
    realistic interference. With ``trace_dir`` set, layout, per-TTI
    allocation and serving-channel traces are written there as CSV.
    """
    return _run_lanes([cfg], trace_dir)[0]


def _dump_ue_csv(xy, drop_cell, serving, velocity_kmph, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("ue_id,x,y,serving_cell,drop_cell,velocity_kmph\n")
        for u, (x, y) in enumerate(xy):
            fh.write(f"{u},{x:.6g},{y:.6g},{serving[u]},{drop_cell[u]},"
                     f"{velocity_kmph:g}\n")


RESULT_COLUMNS = ("scheduler", "rx_polarization", "velocity_kmph", "seed",
                  "avg_ue_throughput_mbps", "spectral_efficiency_bps_hz",
                  "fairness_index")


@dataclass
class ResultsTable:
    """Sweep output: one KPI record per (scheduler, pol, velocity, seed)."""
    records: list
    metadata: dict = field(default_factory=dict)

    def sorted_records(self):
        return sorted(
            self.records,
            key=lambda r: (r.scheduler, r.polarization, r.velocity_kmph,
                           r.seed))

    def rows(self):
        for r in self.sorted_records():
            yield (r.scheduler, r.polarization, f"{r.velocity_kmph:g}",
                   str(r.seed), f"{r.avg_ue_throughput_mbps:.6g}",
                   f"{r.spectral_efficiency_bps_hz:.6g}",
                   f"{r.fairness_index:.6g}")


def _run_group(cfgs):
    """(status, record or error text) for each point of one sweep group.

    If the group fails, each of its points is run again alone, so a
    failure is reported against its own point only, exactly as a sweep
    of single points reports it.
    """
    try:
        return [("ok", record) for record in _run_lanes(cfgs)]
    except Exception as exc:   # noqa: BLE001 - isolate per-point failures
        if len(cfgs) > 1:
            log.info("sweep group of %d points failed (%s: %s); running "
                     "them one by one", len(cfgs), type(exc).__name__, exc)
            return [outcome for cfg in cfgs for outcome in _run_group([cfg])]
        (cfg,) = cfgs
        label = (f"scheduler={cfg.scheduler} "
                 f"polarization={cfg.ue_polarization} "
                 f"velocity={cfg.ue_velocity:g} seed={cfg.seed}")
        return [("error", f"{label}: {type(exc).__name__}: {exc}")]


def _sweep_groups(points, n_workers):
    """Lists of indices into ``points``, one per sweep group.

    The points of one (velocity, seed) differ only in scheduler and
    polarization, so they form one group, polarization-major. While there
    are fewer groups than ``n_workers``, the largest one is halved, which
    splits it by polarization first.
    """
    by_key = {}
    for i, p in enumerate(points):
        by_key.setdefault((p.ue_velocity, p.seed), []).append(i)
    groups = [sorted(g, key=lambda i: points[i].ue_polarization)
              for g in by_key.values()]
    while len(groups) < n_workers:
        big = max(groups, key=len)
        if len(big) == 1:
            break
        groups.remove(big)
        groups += [big[:len(big) // 2], big[len(big) // 2:]]
    return groups


def run_sweep(base, velocities=None, polarizations=None, schedulers=None,
              seeds=None, parallelism=1):
    """Run the cartesian sweep and return (ResultsTable, failure list).

    The points of one (velocity, seed) run as lanes of one group, sharing
    its channel bank (see ``_run_lanes``); every record equals the
    point's own ``run_simulation``, so the results are identical whatever
    the grouping or ``parallelism`` is. Workers take whole groups, split
    only when there are fewer groups than workers. Records come back in
    point order. Failed points are reported, not fatal: they are returned
    and also listed under ``failures`` in the table's metadata. A worker
    process that dies mid-group breaks the pool, and the sweep stops with
    an ``EngineError``. An exception that interrupts the wait for the
    workers, such as ``KeyboardInterrupt``, ends them before it propagates.
    ``parallelism``, the most worker processes to use, must be an int of at
    least 1; anything else, a bool included, raises ``ValueError``.
    """
    if isinstance(parallelism, bool) \
            or not isinstance(parallelism, numbers.Integral) \
            or parallelism < 1:
        raise ValueError(
            f"parallelism must be an int >= 1, got {parallelism!r}")
    points = expand_sweep(base, velocities, polarizations, schedulers,
                          seeds)
    workers = min(parallelism, len(points))
    groups = _sweep_groups(points, workers)
    tasks = [[points[i] for i in g] for g in groups]
    if workers > 1:
        # imported here: only a parallel sweep needs the process pool, and
        # importing it adds about twenty modules to every import of mmwsim
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
        pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"))
        try:
            results = list(pool.map(_run_group, tasks))
        except BrokenProcessPool as exc:
            raise EngineError(
                f"sweep aborted, worker pool broken: "
                f"{type(exc).__name__}: {exc}") from exc
        except BaseException:
            # the wait was interrupted (a signal handler raised, or
            # Ctrl-C): end this pool's workers, which may never return,
            # instead of waiting for them. The pool's own thread then finds
            # them gone and joins them; joining them here as well would
            # race it for their exit status.
            for process in list((pool._processes or {}).values()):
                process.terminate()
            raise
        finally:
            pool.shutdown(cancel_futures=True)
    else:
        results = [_run_group(task) for task in tasks]

    outcomes = [None] * len(points)
    for g, result in zip(groups, results):
        for i, outcome in zip(g, result):
            outcomes[i] = outcome
    records, failures = [], []
    for status, payload in outcomes:
        (records if status == "ok" else failures).append(payload)

    table = ResultsTable(records=records,
                         metadata=_sweep_metadata(base, points, failures))
    return table, failures


def _sweep_metadata(base, points, failures=()):
    text = scenario_to_text(base)
    return {
        "failures": list(failures),
        "package_version": __version__,
        "columns": list(RESULT_COLUMNS),
        "n_points": len(points),
        "base_config_sha256": hashlib.sha256(
            text.encode("utf-8")).hexdigest(),
        "schedulers": sorted({p.scheduler for p in points}),
        "polarizations": sorted({p.ue_polarization for p in points}),
        "velocities_kmph": sorted({p.ue_velocity for p in points}),
        "seeds": sorted({p.seed for p in points}),
    }


def emit_csv(table, path, metadata_path=None):
    """Write the results table as CSV plus a deterministic JSON sidecar.

    The CSV holds only the header and data rows. Run metadata (package
    version, config hash, sweep axes, failed points) goes to
    ``<path stem>.meta.json``.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(RESULT_COLUMNS) + "\n")
        for row in table.rows():
            fh.write(",".join(row) + "\n")
    if metadata_path is None:
        metadata_path = os.path.splitext(path)[0] + ".meta.json"
    with open(metadata_path, "w", encoding="utf-8") as fh:
        json.dump(table.metadata, fh, indent=2, sort_keys=True)
        fh.write("\n")
