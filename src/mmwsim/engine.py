"""Downlink system simulation: single runs, sweeps, and the results table.

One run wires the other modules into the per-TTI loop:

    channel -> link adaptation -> scheduling -> throughput accounting
            -> average-throughput update -> CSI for the next TTI

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
under common random numbers. The shadowing and fading streams of a run
are seeded in one pass (:mod:`mmwsim.streams`) to exactly the
``SeedSequence`` -> ``PCG64`` state numpy would give each key, and one
generator is re-seeded for every key, so each stream is consumed before
the next is drawn. The fading draws then become sinusoid phasors a chunk
of links at a time.

The link layer is streamed over contiguous UE blocks, so per-link arrays
exist for one block at a time; only per-UE results span the network.

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
row count), and keeping every gemm small enough that OpenBLAS runs it on
the calling thread. ``b @ b^H`` per matrix, ``np.add.reduceat`` and
``np.linalg.inv`` are kept as they are, because their stacked or
re-associated forms change bits.
"""

import hashlib
import json
import logging
import math
import multiprocessing
import os
from contextlib import ExitStack
from dataclasses import dataclass, field

import numpy as np

from ._version import __version__
from .antenna import AntennaConfig, PolarizationSpec, combined_gain, \
    port_coupling_series
from .channel import SERIAL_GEMM_MNK, FadingDesign, SosProcess, \
    depolarization_coherence, doppler_frequency, los_probability, \
    pathloss_uma, unit_phasor
from .config import expand_sweep, scenario_to_text
from .deployment import assign_serving_cell, build_hex_layout, drop_ues, \
    dump_layout_csv, step_mobility
from .kpi import KpiRecord, ThroughputLedger, average_ue_throughput, \
    jain_fairness, spectral_efficiency
from .link import build_codebook, mmse_sinr_from_covariance, noise_power_w, \
    sinr_to_rate, stack_codebook
from .scheduler import RbGrid, SchedulerError, SchedulerState, schedule_pf, \
    schedule_rr, update_average_throughput
from .streams import keyed_streams

log = logging.getLogger("mmwsim")


class EngineError(RuntimeError):
    """A simulation run or sweep could not proceed."""


# purpose tags for the keyed random streams
_DROP_STREAM = 1
_LARGE_SCALE_STREAM = 2
_FADING_STREAM = 3

# wideband precoder selection samples every tenth RB
_SELECT_RB_STRIDE = 10
# later codebook entries must beat the incumbent by this much (ties keep
# the lowest rank, then the lowest entry index)
_SELECT_MARGIN = 1e-12
# a UE block holds about this many bytes of per-link channel matrices; the
# per-link channel, precoded channel and covariance arrays of a TTI exist
# for one block at a time, never for the whole network
_BLOCK_BYTES = 8 << 20
# the channel bank turns stream draws into phasors this many links at a
# time: about a megabyte of angles per pass at paper scale
_PHASOR_CHUNK = 32


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


def _wideband_gain_db(cfg, layout, ues, ant):
    """Pathloss + antenna gain + shadowing, dB, for every (cell, ue).

    Shadowing is drawn per link from the (seed, cell, ue)-keyed stream, so
    it is identical across velocities, polarizations and schedulers.
    """
    n_cells = len(layout.sectors)
    n_ues = len(ues)
    site_xy = np.array([[layout.sector_site(c).x, layout.sector_site(c).y]
                        for c in range(n_cells)])
    bore = np.array([s.boresight_deg for s in layout.sectors])
    ue_xy = np.array([[u.x, u.y] for u in ues])

    dx = ue_xy[None, :, 0] - site_xy[:, 0, None]
    dy = ue_xy[None, :, 1] - site_xy[:, 1, None]
    d2d = np.hypot(dx, dy)
    az_rel = (np.degrees(np.arctan2(dy, dx)) - bore[:, None] + 180.0) \
        % 360.0 - 180.0
    elev = np.degrees(np.arctan2(cfg.bs_height - cfg.ue_height, d2d))
    gain = combined_gain(ant, az_rel, elev)

    # each (cell, ue) stream draws uniform() (which is random()) for LOS,
    # then normal(0, sigma) (which is 0.0 + sigma * standard_normal()) for
    # shadowing
    cell, ue = np.divmod(np.arange(n_cells * n_ues), n_ues)
    streams = keyed_streams(cfg.seed, _LARGE_SCALE_STREAM, cell, ue)
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


def _build_linkset(cfg, layout, ues, gain_db, los):
    """Attach every UE and keep its strongest interferers explicit."""
    n_cells, n_ues = gain_db.shape
    p_tx_dbm = 10.0 * math.log10(cfg.bs_tx_power * 1e3)
    rx_dbm = p_tx_dbm + gain_db

    serving = np.empty(n_ues, dtype=int)
    for u, ue in enumerate(ues):
        serving[u] = assign_serving_cell(
            ue, layout, {c: rx_dbm[c, u] for c in range(n_cells)})

    n_keep = min(n_cells, cfg.n_strongest_interferers + 1)
    cell_ids, ue_ids = [], []
    for u in range(n_ues):
        order = np.lexsort((np.arange(n_cells), -rx_dbm[:, u]))[:n_keep]
        cell_ids.extend(int(c) for c in order)
        ue_ids.extend([u] * len(order))

    cell_arr = np.asarray(cell_ids, dtype=int)
    ue_arr = np.asarray(ue_ids, dtype=int)
    return _Linkset(
        cell=cell_arr,
        ue=ue_arr,
        n_keep=n_keep,
        serving=serving,
        amplitude=10.0 ** (gain_db[cell_arr, ue_arr] / 20.0),
        los=los[cell_arr, ue_arr])


class _ChannelBank:
    """Per-TTI MIMO channel matrices for every explicit link.

    Scattered fading is a bank of sum-of-sinusoids sequences (independent
    per tap and antenna pair) advanced by phasor recurrence; LOS links add
    a rank-one specular term carrying K/(K+1) of the power. Two extra
    sequences per link drive the cross-polar leakage phase and the
    depolarization phase wander.
    """

    def __init__(self, cfg, links, f_d):
        self.n_rx, self.n_tx = cfg.n_rx, cfg.n_tx
        self.design = FadingDesign(
            f_d, cfg.n_tti, cfg.tti_duration, cfg.n_rb,
            cfg.coherence_bandwidth_rb)
        n_scatter = self.design.n_taps * self.n_rx * self.n_tx
        self.n_scatter = n_scatter
        n_links = links.n_links

        seq_shape = (n_scatter + 2, self.design.n_sinusoids)
        state0 = np.empty((n_links,) + seq_shape, dtype=np.complex64)
        step = np.empty_like(state0)
        a_rx = np.empty((n_links, self.n_rx), dtype=np.complex64)
        a_tx = np.empty((n_links, self.n_tx), dtype=np.complex64)
        rice_state = np.empty(n_links, dtype=np.complex64)
        rice_step = np.empty(n_links, dtype=np.complex64)

        # Each link's stream holds, in order: the Doppler angles of every
        # sinusoid, then their phases, the rx and tx array phases, the
        # specular phase and the specular Doppler angle. The specular
        # draws happen for every link so the stream layout does not depend
        # on the LOS outcome. uniform(0, 2 pi) is 0.0 + 2 pi * random(), so
        # one random() call per link, scaled by 2 pi, gives every angle.
        n_ang = state0[0].size
        edges = np.cumsum([n_ang, n_ang, self.n_rx, self.n_tx, 1])
        angles = np.empty((_PHASOR_CHUNK, edges[-1] + 1))
        streams = keyed_streams(cfg.seed, _FADING_STREAM, links.cell,
                                links.ue)
        for lo in range(0, n_links, _PHASOR_CHUNK):
            chunk = slice(lo, min(lo + _PHASOR_CHUNK, n_links))
            ang = angles[:chunk.stop - lo]
            for row in ang:
                next(streams).random(out=row)
            ang *= 2 * math.pi
            theta, phase, rx, tx, rice, rice_doppler = np.split(
                ang, edges, axis=1)
            state0[chunk], step[chunk] = self.design.sinusoids(
                theta.reshape((-1,) + seq_shape),
                phase.reshape((-1,) + seq_shape))
            a_rx[chunk] = unit_phasor(rx)
            a_tx[chunk] = unit_phasor(tx)
            rice_state[chunk] = unit_phasor(rice[:, 0])
            rice_step[chunk] = unit_phasor(
                2 * math.pi * f_d * np.cos(rice_doppler[:, 0])
                * cfg.tti_duration)

        self.sos = SosProcess(state0, step)
        self.rice_state, self.rice_step = rice_state, rice_step
        self.a_rx, self.a_tx = a_rx, a_tx

        k = 10.0 ** (cfg.rician_k_db / 10.0)
        c_scat = np.where(links.los, math.sqrt(1.0 / (k + 1.0)), 1.0)
        c_spec = np.where(links.los, math.sqrt(k / (k + 1.0)), 0.0)
        # single precision end to end: channel matrices and covariance
        # sums stay complex64 (PSD by construction); inversions upcast
        self.w_scat = (links.amplitude * c_scat).astype(np.float32)
        self.w_spec = (links.amplitude * c_spec).astype(np.float32)

        slant = cfg.bs_pol_slant_deg
        self.pol = PolarizationSpec(
            tx_slants_deg=(slant + cfg.mechanical_slant_deg,
                           -slant + cfg.mechanical_slant_deg),
            rx_slant_deg=cfg.ue_pol_slant_deg,
            xpd_db=cfg.xpd_mean)
        self.alpha_dep = depolarization_coherence(
            f_d, cfg.depol_coherence_time)
        self.port_parity = np.arange(self.n_tx) % 2
        self._refresh()

    def coherent_fraction_sq(self):
        """Coherent power fraction at the receiver's slant (1 for LPOL)."""
        rho = math.radians(self.pol.rx_slant_deg)
        return math.cos(rho) ** 2 \
            + math.sin(rho) ** 2 * self.alpha_dep ** 2

    def _refresh(self):
        """Per-link terms of the present TTI, for every link at once."""
        seq = self.sos.current()
        self.taps = seq[:, :self.n_scatter]
        self.spec = (self.w_spec * self.rice_state)[:, None, None] \
            * self.a_rx[:, :, None] * self.a_tx[:, None, :]

        leak = seq[:, -2]
        leak = leak / np.maximum(np.abs(leak), 1e-30)
        wander = seq[:, -1]
        wander = wander / np.maximum(np.abs(wander), 1e-30)
        coup = port_coupling_series(
            self.pol, leak, self.alpha_dep * wander)   # (n_links, 2)
        self.port = coup.astype(np.complex64)[:, self.port_parity]

    def current(self, links):
        """Assemble H for the present TTI on the link slice ``links``:
        (n, n_rb, n_rx, n_tx), RB axis innermost in memory."""
        taps = self.taps[links].reshape(
            -1, self.design.n_taps, self.n_rx, self.n_tx)
        h = self.w_scat[links, None, None, None] * self.design.mix_taps(taps)
        h = h + self.spec[links, None, :, :]
        return h * self.port[links, None, None, :]

    def advance(self):
        self.sos.advance()
        self.rice_state = self.rice_state * self.rice_step
        self._refresh()


def _stacked_matmul(a, p):
    """``a @ p`` where each matrix of ``p`` is shared by a stack of ``a``.

    ``a`` is (..., n_mat, m, n) and ``p`` is (..., n, k), the leading axes
    broadcast against each other. The n_mat matrices are stacked into one
    (n_mat * m)-row gemm per matrix of ``p``: OpenBLAS gives each row of a
    gemm the same bits whatever the row count, so this equals the n_mat
    separate products exactly. Row vectors (m = 1) are the exception: numpy
    issues a vector-matrix product as a gemv, whose bits differ from a
    gemm's, so they keep one product each.
    """
    if a.shape[-2] == 1:
        return a @ p[..., None, :, :]
    rows = a.reshape(a.shape[:-3] + (-1, a.shape[-1])) @ p
    return rows.reshape(rows.shape[:-2] + a.shape[-3:-1] + p.shape[-1:])


class _LinkAdapter:
    """Covariance assembly, rate measurement and precoder selection.

    ``measure`` streams the channel and interference covariance over
    contiguous UE blocks and keeps only the per-UE results: the serving
    channel ``h_serv`` and the interference covariance ``r_int``.
    """

    def __init__(self, cfg, links):
        self.links = links
        self.noise = noise_power_w(cfg.rb_bandwidth, cfg.noise_figure)
        self.p_rb = cfg.bs_tx_power / cfg.n_rb
        self.rb_bandwidth = cfg.rb_bandwidth
        self.tti = cfg.tti_duration
        self.efficiency = cfg.shannon_efficiency
        self.se_cap = cfg.spectral_efficiency_cap
        self.sn_scale = 1.0   # set per run from the coherent fraction

        padded, ranks = stack_codebook(build_codebook(cfg.n_tx), cfg.n_tx)
        self.cand = (padded * np.sqrt(self.p_rb / ranks)[:, None, None]) \
            .astype(np.complex64)
        self.ranks = ranks
        self.max_rank = padded.shape[2]
        self.select_rb = np.arange(0, cfg.n_rb, _SELECT_RB_STRIDE)
        self.iso = (math.sqrt(self.p_rb / cfg.n_tx)
                    * np.eye(cfg.n_tx, self.max_rank)).astype(np.complex64)

        n_ues, n_keep = links.serving.shape[0], links.n_keep
        ue_bytes = n_keep * cfg.n_rb * cfg.n_rx * cfg.n_tx \
            * np.dtype(np.complex64).itemsize
        step = max(1, _BLOCK_BYTES // ue_bytes)
        self.blocks = []
        for lo in range(0, n_ues, step):
            hi = min(lo + step, n_ues)
            lk = slice(lo * n_keep, hi * n_keep)
            cell = links.cell[lk]
            self.blocks.append(_UeBlock(
                ues=slice(lo, hi), links=lk,
                cells=[(c, np.flatnonzero(cell == c))
                       for c in np.unique(cell)]))
        # the serving channel keeps the channel bank's RB-innermost layout
        self.h_serv = np.empty((n_ues, cfg.n_rx, cfg.n_tx, cfg.n_rb),
                               dtype=np.complex64).transpose(0, 3, 1, 2)
        self.r_int = np.empty((n_ues, cfg.n_rb, cfg.n_rx, cfg.n_rx),
                              dtype=np.complex64)

    def isotropic_psched(self, n_cells, n_rb):
        """Equal-power identity precoding everywhere (TTI-0 bootstrap)."""
        p = np.zeros((n_cells, n_rb, self.cand.shape[1], self.max_rank),
                     dtype=np.complex64)
        p[:, :] = self.iso
        return p

    def measure(self, bank, psched):
        """Fill ``h_serv`` and ``r_int`` for the present TTI, block by block."""
        n_keep = self.links.n_keep
        for block in self.blocks:
            h = bank.current(block.links)
            self.r_int[block.ues] = self.interference(h, psched, block)
            self.h_serv[block.ues] = h[::n_keep]

    def interference(self, h, psched, block):
        """Per-(ue, rb) interference covariance of one UE block, own-cell
        signal excluded.

        ``h`` is the block's per-link channel and ``psched`` maps (cell, rb)
        to the scaled precoder in use. The links of one cell are precoded
        as one stacked product per RB. Because a UE's own hypothetical
        grant replaces whatever its serving cell is transmitting, the
        serving link's contribution is subtracted from the segmented sum
        over each UE's link group.
        """
        b = np.empty(h.shape[:-1] + (self.max_rank,), dtype=np.complex64)
        for c, idx in block.cells:
            b[idx] = _stacked_matmul(h[idx].swapaxes(0, 1),
                                     psched[c]).swapaxes(0, 1)
        g = b @ b.conj().swapaxes(-1, -2)
        starts = np.arange(0, h.shape[0], self.links.n_keep)
        total = np.add.reduceat(g, starts, axis=0)
        return total - g[starts]

    def _with_noise(self, cov):
        """Scale by the self-noise factor, add thermal noise, go double."""
        out = cov.astype(np.complex128) * self.sn_scale
        idx = np.arange(out.shape[-1])
        out[..., idx, idx] += self.noise
        return out

    def rate_table(self, p_own):
        """Per-(ue, rb) bits from the measured ``h_serv`` and ``r_int``."""
        return np.concatenate([
            self.rates(self.h_serv[b.ues], self.r_int[b.ues], p_own[b.ues])
            for b in self.blocks])

    def rates(self, h_serv, r_int, p_own):
        """Per-(ue, rb) truncated-Shannon bits for one RB grant."""
        eff = _stacked_matmul(h_serv, p_own)
        own = eff @ eff.conj().swapaxes(-1, -2)
        cov = self._with_noise(r_int + own)
        sinr = mmse_sinr_from_covariance(eff, cov)
        return sinr_to_rate(sinr, self.rb_bandwidth, self.tti,
                            self.efficiency, self.se_cap).sum(axis=-1)

    def select(self, h_serv, r_int):
        """Wideband codebook choice per UE from a decimated RB sample.

        UEs are taken in chunks whose stacked candidate products stay on
        the calling thread, which also bounds the temporaries.
        """
        h_sel = h_serv[:, self.select_rb]
        r_sel = r_int[:, self.select_rb]
        n_ues, n_sel, n_rx, n_tx = h_sel.shape
        step = max(1, SERIAL_GEMM_MNK
                   // (n_sel * n_rx * n_tx * self.max_rank))
        idx = np.empty(n_ues, dtype=np.intp)
        for lo in range(0, n_ues, step):
            idx[lo:lo + step] = self._select_chunk(h_sel[lo:lo + step],
                                                   r_sel[lo:lo + step])
        return self.cand[idx], idx

    def _select_chunk(self, h_sel, r_sel):
        n_ues, n_sel, n_rx, n_tx = h_sel.shape
        rows = h_sel.swapaxes(0, 1).reshape(1, -1, n_rx, n_tx)
        eff = _stacked_matmul(rows, self.cand).reshape(
            -1, n_sel, n_ues, n_rx, self.max_rank)
        # axes (ue, entry, rb, rx, layer) over (entry, rb, ue) memory order,
        # the layout numpy gave the per-matrix form
        eff = eff.transpose(2, 0, 1, 3, 4)
        own = eff @ eff.conj().swapaxes(-1, -2)
        base = self._with_noise(r_sel)
        sinr = mmse_sinr_from_covariance(eff, base[:, None] +
                                         self.sn_scale * own)
        score = np.log2(1.0 + sinr).sum(axis=(2, 3))
        best = score.max(axis=1, keepdims=True)
        return np.argmax(score >= best - _SELECT_MARGIN, axis=1)


def _scheduler_states(cfg, cell_ues):
    return {c: SchedulerState.fresh(list(map(int, ues)),
                                    cfg.pf_initial_throughput_bits)
            for c, ues in cell_ues.items()}


def _schedule_cell(cfg, ues_c, grid, state, csi_rates):
    if cfg.scheduler == "RR":
        return schedule_rr(list(map(int, ues_c)), grid, state)
    per_rb = {int(u): csi_rates[u] for u in ues_c}
    return schedule_pf(list(map(int, ues_c)), grid, per_rb, state)


def run_simulation(cfg, trace_dir=None):
    """Run one scenario point end to end and return its KPI record.

    KPIs aggregate the UEs served by the center site's three cells (all
    cells with ``collect_all_sectors``); the outer rings exist to generate
    realistic interference. With ``trace_dir`` set, layout, per-TTI
    allocation and serving-channel traces are written there as CSV.
    """
    layout = build_hex_layout(cfg.n_site_rings, cfg.inter_site_distance,
                              cfg.azimuth_offset_deg)
    n_cells = len(layout.sectors)
    ues = drop_ues(layout, cfg.ues_per_sector, cfg,
                   _rng(cfg.seed, _DROP_STREAM))
    n_ues = len(ues)
    ant = AntennaConfig.from_scenario(cfg)

    gain_db, los = _wideband_gain_db(cfg, layout, ues, ant)
    links = _build_linkset(cfg, layout, ues, gain_db, los)

    if cfg.collect_all_sectors:
        counted = list(range(n_ues))
    else:
        center = {s.cell_id for s in layout.sectors if s.site_id == 0}
        counted = [u for u in range(n_ues) if links.serving[u] in center]
    if not counted:
        raise EngineError("no UEs attached to the collected cells")

    f_d = doppler_frequency(cfg.ue_velocity, cfg.carrier_frequency)
    bank = _ChannelBank(cfg, links, f_d)
    adapter = _LinkAdapter(cfg, links)
    adapter.sn_scale = 1.0 / bank.coherent_fraction_sq()

    cell_ues = {}
    for u in range(n_ues):
        cell_ues.setdefault(int(links.serving[u]), []).append(u)
    for c in cell_ues:
        cell_ues[c].sort()
    grid = RbGrid(cfg.n_rb, cfg.rb_bandwidth)
    sched = _scheduler_states(cfg, cell_ues)

    log.info("run %s/%s v=%g seed=%d: %d cells, %d ues (%d counted), "
             "%d links", cfg.scheduler, cfg.ue_polarization, cfg.ue_velocity,
             cfg.seed, n_cells, n_ues, len(counted), links.n_links)

    with ExitStack() as stack:
        alloc_trace = chan_trace = None
        if trace_dir is not None:
            os.makedirs(trace_dir, exist_ok=True)
            dump_layout_csv(layout, os.path.join(trace_dir, "sites.csv"),
                            os.path.join(trace_dir, "cells.csv"))
            _dump_ue_csv(ues, os.path.join(trace_dir, "ues.csv"))
            alloc_trace = stack.enter_context(
                open(os.path.join(trace_dir, "allocation.csv"), "w",
                     encoding="utf-8"))
            alloc_trace.write("tti,cell_id,rb,ue_id,granted_bits\n")
            chan_trace = stack.enter_context(
                open(os.path.join(trace_dir, "channel.csv"), "w",
                     encoding="utf-8"))
            chan_trace.write("tti,ue_id,serving_cell,mean_gain_db\n")

        try:
            adapter.measure(bank, adapter.isotropic_psched(n_cells, cfg.n_rb))
            p_own, _ = adapter.select(adapter.h_serv, adapter.r_int)
            csi_rates = adapter.rate_table(p_own)
        except Exception as exc:
            raise EngineError(
                f"tti 0 (csi bootstrap): {type(exc).__name__}: {exc}"
            ) from exc

        total_bits = np.zeros(n_ues)
        rb_idx = np.arange(cfg.n_rb)
        for t in range(cfg.n_tti):
            try:
                if t > 0:
                    bank.advance()

                psched = np.zeros(
                    (n_cells, cfg.n_rb, cfg.n_tx, adapter.max_rank),
                    dtype=np.complex64)
                allocs = {}
                for c, ues_c in cell_ues.items():
                    try:
                        allocs[c] = _schedule_cell(cfg, ues_c, grid,
                                                   sched[c], csi_rates)
                    except SchedulerError as exc:
                        raise EngineError(
                            f"tti {t} cell {c}: {exc}") from exc
                    psched[c] = p_own[allocs[c].rb_to_ue]

                adapter.measure(bank, psched)
                rate_meas = adapter.rate_table(p_own)

                granted = np.zeros(n_ues)
                for c, alloc in allocs.items():
                    np.add.at(granted, alloc.rb_to_ue,
                              rate_meas[alloc.rb_to_ue, rb_idx])
                total_bits += granted

                for c, ues_c in cell_ues.items():
                    update_average_throughput(
                        sched[c],
                        {int(u): float(granted[u]) for u in ues_c},
                        cfg.pf_time_constant_tc)

                if (t + 1) % cfg.csi_period_tti == 0:
                    p_own, _ = adapter.select(adapter.h_serv, adapter.r_int)
                csi_rates = rate_meas

                for ue in ues:
                    step_mobility(ue, cfg.tti_duration, cfg.position_update)
            except EngineError:
                raise
            except Exception as exc:
                raise EngineError(
                    f"tti {t}: {type(exc).__name__}: {exc}") from exc

            if alloc_trace is not None:
                for c in sorted(allocs):
                    for rb, u in enumerate(allocs[c].rb_to_ue):
                        alloc_trace.write(
                            f"{t},{c},{rb},{u},"
                            f"{rate_meas[u, rb]:.6g}\n")
                h_serv = adapter.h_serv
                for u in counted:
                    mg = 10.0 * math.log10(
                        max(np.mean(np.abs(h_serv[u]) ** 2), 1e-300))
                    chan_trace.write(
                        f"{t},{u},{links.serving[u]},{mg:.6g}\n")

    ledger = ThroughputLedger()
    for u in range(n_ues):
        ledger.add(u, float(total_bits[u]))
    duration = cfg.n_tti * cfg.tti_duration
    tp = ledger.throughputs(duration, counted)

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


def _dump_ue_csv(ues, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("ue_id,x,y,serving_cell,drop_cell,velocity_kmph\n")
        for u in ues:
            fh.write(f"{u.ue_id},{u.x:.6g},{u.y:.6g},{u.serving_cell},"
                     f"{u.drop_cell},{u.velocity_kmph:g}\n")


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


def _run_point(cfg):
    try:
        return "ok", run_simulation(cfg)
    except Exception as exc:   # noqa: BLE001 - isolate per-point failures
        label = (f"scheduler={cfg.scheduler} "
                 f"polarization={cfg.ue_polarization} "
                 f"velocity={cfg.ue_velocity:g} seed={cfg.seed}")
        return "error", f"{label}: {type(exc).__name__}: {exc}"


def run_sweep(base, velocities=None, polarizations=None, schedulers=None,
              seeds=None, parallelism=1):
    """Run the cartesian sweep and return (ResultsTable, failure list).

    Points are independent runs (each rebuilds its keyed streams), so the
    results are identical whatever ``parallelism`` is; workers only change
    the wall clock. Failed points are reported, not fatal: they are
    returned and also listed under ``failures`` in the table's metadata.
    A worker process that dies mid-point breaks the pool, and the sweep
    stops with an ``EngineError``.
    """
    points = expand_sweep(base, velocities, polarizations, schedulers,
                          seeds)
    if parallelism > 1 and len(points) > 1:
        # imported here: only a parallel sweep needs the process pool, and
        # importing it adds about twenty modules to every import of mmwsim
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
        with ProcessPoolExecutor(
                max_workers=min(parallelism, len(points)),
                mp_context=multiprocessing.get_context("fork")) as pool:
            try:
                outcomes = list(pool.map(_run_point, points))
            except BrokenProcessPool as exc:
                raise EngineError(
                    f"sweep aborted, worker pool broken: "
                    f"{type(exc).__name__}: {exc}") from exc
    else:
        outcomes = [_run_point(p) for p in points]

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
