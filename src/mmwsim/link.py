"""Closed-loop spatial multiplexing abstraction: codebook, SINR, rates, and
the link layer that runs them over the UE blocks of a group.

The codebook is DFT-based: beams b_k(delta)[n] = exp(j n (2 pi k / n_tx +
delta)) / sqrt(n_tx). Rank-r entries take r cyclically consecutive beams of
one rotation, so every entry is orthonormal and the set is closed under the
per-port sign flips a slant-swapped receiver induces. Receivers are linear
MMSE; rates use the truncated Shannon bound.

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
row count) and keeping every gemm small enough that OpenBLAS runs it on
the calling thread. ``b @ b^H`` per matrix and ``np.linalg.inv`` are
kept wherever their results reach a rate or a pick, because their
stacked or re-associated forms change bits.

Precoder selection is the one stage whose arithmetic is free: only the
chosen entry's index leaves it. So it screens every entry with the
batch-last ``mmse_batch_last``, whose bits differ from the inverse's, and
scores exactly only the entries near each UE's screened best (see
``_LinkLayer._best_entry``).

The link layer runs on one thread: ``matmul`` and ``inv`` release the
GIL, yet two stacked products of tiny matrices took longer side by side
than one after the other, and ``inv`` gained little. Only the channel
bank's build runs on threads (see :mod:`mmwsim.channel`).
"""

import math

import numpy as np

from .channel import _front
from .config import TTI_DURATION


class LinkAbstractionError(ValueError):
    pass


def noise_power_w(bandwidth_hz, noise_figure_db):
    """Thermal noise power over ``bandwidth_hz`` in watts (-174 dBm/Hz PSD)."""
    if bandwidth_hz <= 0:
        raise LinkAbstractionError("bandwidth must be > 0")
    dbm = -174.0 + 10.0 * math.log10(bandwidth_hz) + noise_figure_db
    return 10.0 ** ((dbm - 30.0) / 10.0)


def _dft_beams(n_tx, rotation):
    n = np.arange(n_tx)
    k = np.arange(n_tx)
    phase = np.outer(n, 2.0 * math.pi * k / n_tx + rotation)
    return np.exp(1j * phase) / math.sqrt(n_tx)   # columns are beams


def build_codebook(n_tx):
    """Ordered precoder candidates, lowest rank first then entry index.

    n_tx = 1 degenerates to the scalar [[1]]. For n_tx = 4 every rank has 8
    entries: 4 cyclic beam windows x 2 rotations for ranks 1-3, 8 rotations
    of the full DFT matrix for rank 4.
    """
    if n_tx not in (1, 2, 4):
        raise LinkAbstractionError("codebook defined for n_tx in {1, 2, 4}")
    if n_tx == 1:
        return [np.ones((1, 1), dtype=complex)]

    entries = []
    partial_rots = [2.0 * math.pi * m / (2 * n_tx) for m in range(2)]
    for rank in range(1, n_tx):
        for rot in partial_rots:
            beams = _dft_beams(n_tx, rot)
            for start in range(n_tx):
                cols = [(start + i) % n_tx for i in range(rank)]
                entries.append(beams[:, cols])
    n_full = 8 if n_tx == 4 else 2
    for m in range(n_full):
        entries.append(_dft_beams(n_tx, 2.0 * math.pi * m / (n_tx * n_full)))
    return entries


def stack_codebook(codebook, n_tx):
    """Zero-pad entries to a fixed-width tensor for batched evaluation.

    Returns (padded (n_entries, n_tx, max_rank), ranks (n_entries,)).
    Zero columns carry no power and score zero rate, so they are inert.
    """
    max_rank = max(p.shape[1] for p in codebook)
    padded = np.zeros((len(codebook), n_tx, max_rank), dtype=complex)
    ranks = np.zeros(len(codebook), dtype=int)
    for i, p in enumerate(codebook):
        padded[i, :, : p.shape[1]] = p
        ranks[i] = p.shape[1]
    return padded, ranks


def mmse_sinr_from_covariance(effective, covariance):
    """Per-layer MMSE SINR given the total covariance (signal included).

    ``effective``: (..., n_rx, n_layers) precoded channel columns, power
    applied. ``covariance``: (..., n_rx, n_rx) = noise + interference + own
    signal. Uses u = a^H R^-1 a, sinr = u / (1 - u); zero columns give 0.
    Every step is per matrix or elementwise, so a matrix's result does not
    depend on the others in the stack.
    """
    prod = np.matmul(np.linalg.inv(covariance), effective)
    # b^* a has the real part of a^* b, bit for bit. Both factors are cast
    # to complex128 and neither is overwritten: otherwise numpy multiplies
    # a lone element without its vector loop's fused multiply-add, and a
    # one-element product's bits would depend on its shape
    prod = np.multiply(np.conjugate(prod), effective.astype(np.complex128),
                       out=prod)
    u = prod.sum(axis=-2).real
    u = np.clip(u, 0.0, 1.0 - 1e-15)
    return u / (1.0 - u)


def mmse_batch_last(effective, covariance, out=None):
    """Per-layer MMSE u = a^H R^-1 a (sinr = u / (1 - u)) with the batch
    axes last, by an elementwise Cholesky factorisation R = L L^H.

    ``effective``: (n_rx, n_layers, *batch) precoded columns;
    ``covariance``: (n_rx, n_rx, *batch) complex128 total covariance, of
    which only the lower triangle is read, and which L's lower triangle
    overwrites. u = ||L^-1 a||^2, by forward substitution into ``out``
    (complex128, ``effective``'s shape; made if not given). Each step is
    one ufunc over the contiguous batch, not a call per matrix, and its
    bits differ from those of ``mmse_sinr_from_covariance``'s inverse.
    Returns u, (n_layers, *batch) float64.
    """
    n_rx = covariance.shape[0]
    low = covariance
    scale = []                          # 1 / L[j, j]
    for j in range(n_rx):
        d = low[j, j].real.copy()
        for k in range(j):
            d -= low[j, k].real ** 2 + low[j, k].imag ** 2
        scale.append(1.0 / np.sqrt(d))
        for i in range(j + 1, n_rx):
            for k in range(j):
                low[i, j] -= low[i, k] * np.conjugate(low[j, k])
            low[i, j] *= scale[j]
    y = np.empty(effective.shape, np.complex128) if out is None else out
    np.copyto(y, effective)
    u = np.zeros(y.shape[1:])
    for i in range(n_rx):
        for k in range(i):
            y[i] -= low[i, k] * y[k]
        y[i] *= scale[i]
        u += y[i].real ** 2 + y[i].imag ** 2
    return u


def sinr_to_rate(sinr, rb_bandwidth, tti, efficiency=0.6, se_cap=7.4):
    """Truncated Shannon bits for one RB/TTI grant (per layer).

    bits = tti * rb_bandwidth * min(efficiency * log2(1 + sinr), se_cap)
    """
    sinr = np.asarray(sinr, dtype=float)
    if np.any(sinr < 0):
        raise LinkAbstractionError("sinr must be >= 0")
    se = np.minimum(efficiency * np.log2(1.0 + sinr), se_cap)
    bits = tti * rb_bandwidth * se
    return bits if bits.ndim else float(bits)



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


class _LinkLayer:
    """The link kernels of a group and their buffers, built once.

    ``cand`` is the codebook (n_entries, n_tx, max_rank) of complex64
    precoders at the RB's power, ``select_rb`` the RBs selection samples
    and ``noise`` the thermal noise per RB in watts. ``work`` has room for
    any UE block of up to ``n_ues`` UEs and ``n_links`` links. ``select``
    books its seconds on ``clock`` and counts its decisions, exactly scored
    entries (survivors), fallbacks, near ties and its largest screen gap
    in ``select_stats``.
    """

    def __init__(self, cfg, links, cand, select_rb, noise, clock, n_links,
                 n_ues):
        self.cfg = cfg
        self.links = links
        self.cand = cand
        self.max_rank = cand.shape[2]
        self.select_rb = select_rb
        self.noise = noise
        self.clock = clock
        self.select_stats = {"decisions": 0, "survivors": 0, "fallbacks": 0,
                             "near ties": 0, "screen gap": 0.0}
        self.work = self._work(n_links, n_ues)

    def _work(self, n_links, n_ues):
        """Flat complex64 buffers, of even sizes, with room for a block's
        precoded links ``b``, their conjugates ``bh`` and products ``g``, or
        its selection arrays: the candidates' products in ``b``, followed
        by the screen's whitened columns, and complex128 views of ``g`` for
        the products' own covariances and of ``bh`` for the screen's
        covariances."""
        cfg = self.cfg
        n_sel = n_ues * len(self.cand) * len(self.select_rb) * cfg.n_rx
        n = max(n_links * cfg.n_rb * cfg.n_rx, n_sel)
        sizes = {"b": max(n, 3 * n_sel + 1) * self.max_rank,
                 "g": max(n, 2 * n_sel) * cfg.n_rx,
                 "bh": max(n * self.max_rank, 2 * n_sel * cfg.n_rx)}
        return {k: np.empty(m + m % 2, np.complex64)
                for k, m in sizes.items()}

    def interference(self, lane, h, port, block):
        """Write ``lane``'s per-(ue, rb) interference covariances of one UE
        block, own-cell signal excluded, into the front of its ``r_int``:
        every entry, or its ``pairs`` only, leaving the others as they are.

        ``h * port`` is the block's per-link channel, with ``port`` the
        receive-port coupling (n, 1, 1, n_tx), and the lane's ``psched``
        maps (cell, rb) to the scaled precoder in use. The links of one
        cell are coupled and precoded as one stacked product per RB; a
        pair's links one matrix at a time, at its RB, which gives the rows
        of the stacked product to the last bit.
        """
        r_int = lane.r_int[:block.ues.stop - block.ues.start]
        b = self.work["b"]
        if lane.pairs is None:
            b = _front(b, h.shape[:-1] + (self.max_rank,))
            for c, idx in block.cells:
                h_c = h[idx]
                h_c *= port[idx]
                b[idx] = _stacked_matmul(h_c.swapaxes(0, 1),
                                         lane.psched[c]).swapaxes(0, 1)
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
        b = np.matmul(h_p, lane.psched[cell, rb[:, None]], out=_front(
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
        n_keep = self.links.n_keep
        # reduceat sums each segment pairwise; a strided .sum(axis=1)
        # would add its items left to right, which changes bits
        total = np.add.reduceat(g, np.arange(0, len(g), n_keep), axis=0)
        return np.subtract(total, g[::n_keep],
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

