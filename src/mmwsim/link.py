"""Closed-loop spatial multiplexing abstraction: codebook, SINR, rates.

The codebook is DFT-based: beams b_k(delta)[n] = exp(j n (2 pi k / n_tx +
delta)) / sqrt(n_tx). Rank-r entries take r cyclically consecutive beams of
one rotation, so every entry is orthonormal and the set is closed under the
per-port sign flips a slant-swapped receiver induces. Receivers are linear
MMSE; rates use the truncated Shannon bound.
"""

import math

import numpy as np


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

