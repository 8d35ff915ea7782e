"""Downlink system simulation: a group of runs and its per-TTI loop.

One run wires the other modules into the per-TTI loop:

    channel -> scheduling on the CSI of t-1 -> one pass over UE blocks
    (interference, rates as the CSI of t, precoder choice)
    -> throughput accounting -> average-throughput update

Each UE attaches once, to the cell with the strongest wideband power (ties
to the lowest cell id), and keeps its drop position: velocity enters the
run only through the Doppler shift. Per-UE and per-cell state is arrays
indexed by id; each TTI the cells fill one (cell, RB) grant map, and the
average throughput is updated once over all UEs.

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

Every random draw comes from a stream keyed by (seed, purpose, cell, ue)
(:mod:`mmwsim.streams`), so runs differing only in velocity, polarization
or scheduler share their drop geometry, shadowing and fading sinusoids:
sweep axes are compared under common random numbers.

Runs that differ only in scheduler and polarization run in lockstep as
lanes of one group (``_Group``), built once and shared: layout, drop,
gains, link set, the channel bank of :mod:`mmwsim.channel`, UE blocks and
the link layer of :mod:`mmwsim.link`. Each TTI the bank advances once, and
the link layer is one pass over contiguous UE blocks (``_Group.measure``).
A lane keeps per-UE and per-cell arrays and one block's interference
covariances, and measures only its demand: the (UE, RB) pairs something
reads after the TTI's grants (``_Lane.demand``). ``run_simulation`` is the
one-lane case, and every lane's record equals it; :mod:`mmwsim.sweep` runs
grids of groups.
"""

import logging
import math
import os
import time
from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from .antenna import combined_gain
from .channel import SERIAL_GEMM_MNK, _ChannelBank, doppler_frequency, \
    los_probability, pathloss_uma
from .config import TTI_DURATION
from .deployment import SECTORS_PER_SITE, build_hex_layout, drop_ues, \
    dump_layout_csv
from .kpi import KpiRecord, average_ue_throughput, jain_fairness, \
    spectral_efficiency
from .link import _TIE_GAP, _LinkLayer, build_codebook, noise_power_w, \
    stack_codebook
from .scheduler import SchedulerError, schedule_pf, schedule_rr, \
    update_average_throughput
from .streams import DROP_STREAM, LARGE_SCALE_STREAM, keyed_streams

log = logging.getLogger("mmwsim")


class EngineError(RuntimeError):
    """A simulation run or sweep could not proceed."""


# wideband precoder selection samples every tenth RB
_SELECT_RB_STRIDE = 10
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


def _by_pol(lanes):
    """``lanes`` by polarization, in order."""
    pols = dict.fromkeys(lane.pol for lane in lanes)
    return {pol: [lane for lane in lanes if lane.pol == pol] for pol in pols}


class _Group:
    """The shared part of a run, built once for all the lanes of a group.

    Its lanes' configs differ only in ``scheduler`` and ``ue_polarization``,
    so they share the layout, drop, gains, link set, counted UEs, channel
    bank, the link layer ``link``, and UE blocks of about ``_BLOCK_BYTES``
    of per-link channel matrices (and at most as many bytes of selection
    screen covariances), with the bank's buffers ``work`` and the serving
    channel ``h_serv``. ``clock`` books each stage's seconds.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self.clock = _Clock()
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
        self.clock.lap("setup")
        self.bank = _ChannelBank(cfg, links, f_d)
        self.clock.lap("bank build")

        noise = noise_power_w(cfg.rb_bandwidth, cfg.noise_figure)
        padded, ranks = stack_codebook(build_codebook(cfg.n_tx), cfg.n_tx)
        p_rb = cfg.bs_tx_power / cfg.n_rb
        cand = (padded * np.sqrt(p_rb / ranks)[:, None, None]) \
            .astype(np.complex64)
        max_rank = padded.shape[2]
        select_rb = np.arange(0, cfg.n_rb, _SELECT_RB_STRIDE)
        self.iso = (math.sqrt(p_rb / cfg.n_tx)
                    * np.eye(cfg.n_tx, max_rank)).astype(np.complex64)

        n_sel, n_rx, n_tx = len(select_rb), cfg.n_rx, cfg.n_tx
        step = max(1, min(
            _BLOCK_BYTES // (links.n_keep * cfg.n_rb * n_rx * n_tx * 8),
            _BLOCK_BYTES // (len(cand) * n_sel * n_rx * n_rx * 16),
            SERIAL_GEMM_MNK // (n_sel * n_rx * n_tx * max_rank)))
        self.blocks = _ue_blocks(links, step)
        self.block_ues = min(step, n_ues)
        n_links = max(b.links.stop - b.links.start for b in self.blocks)
        self.work = self.bank.buffers(n_links)
        self.link = _LinkLayer(cfg, links, cand, select_rb, noise,
                               self.clock, n_links, self.block_ues)
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

        Each block's channel is mixed once, and for each polarization its
        serving links are coupled into ``h_serv``. Then the link layer
        writes, lane by lane, the block's covariances into ``r_int`` and its
        rates into ``csi_rates``, and with ``select`` picks each lane's
        ``p_own`` rows from products made once per polarization. The
        bootstrap precodes isotropically and rates the precoders it picks; a
        TTI rates those it granted with, then picks. ``gains`` (n_ues,), if
        given, takes each UE's mean serving gain at ``lanes[0].pol``.
        """
        by_pol = _by_pol(lanes)
        # equal-power identity precoding everywhere
        psched = np.broadcast_to(self.iso, (self.n_cells, self.cfg.n_rb)
                                 + self.iso.shape) if bootstrap else None
        n_keep = self.links.n_keep
        link = self.link
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
                    link.interference(lane, h, port, block, psched)
                    lap("interference")
                    if not bootstrap:
                        link.rates(lane, block, h_serv)
                        lap("rates")
                if select:
                    link.select(same, block, h_serv)
                for lane in same if bootstrap else ():
                    link.rates(lane, block, h_serv)
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


class _Lane:
    """One run of a group: its link feedback and scheduler state, all
    per-UE or per-cell arrays, and its interference covariances of one
    UE block."""

    def __init__(self, cfg, group):
        n_ues, n_cells = len(group.xy), group.n_cells
        max_rank = group.link.max_rank
        self.cfg = cfg
        self.pol = cfg.ue_polarization
        self.sn_scale = 1.0 / group.bank.coherent_fraction_sq(self.pol)
        self.r_int = np.empty((group.block_ues, cfg.n_rb, cfg.n_rx, cfg.n_rx),
                              dtype=np.complex64)
        # filled by the CSI bootstrap, then rewritten in place block by block
        self.p_own = np.empty((n_ues, cfg.n_tx, max_rank),
                              dtype=np.complex64)
        self.csi_rates = np.empty((n_ues, cfg.n_rb))
        # the (ue, rb) pairs measured this TTI, or None for all of them
        self.pairs = None
        # empty cells stay silent: only the active cells' rows are written
        self.psched = np.zeros((n_cells, cfg.n_rb, cfg.n_tx, max_rank),
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
            read[:, group.link.select_rb] = True
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
                clock.lap("schedule")
                group.measure(lanes, select=_selects(cfg, t), gains=gains)
                for lane in lanes:
                    lane.account()
                clock.lap("account")
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
    stats = group.link.select_stats
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
