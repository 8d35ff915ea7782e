"""Large-scale and small-scale channel models for the urban-macro layout.

Pathloss follows the TR 38.901 urban-macro formulas (dual-slope LOS with a
breakpoint, NLOS floored by the LOS curve). Small-scale fading is a
sum-of-sinusoids Jakes generator: each sequence sums ``N_SINUSOIDS`` unit
phasors with iid random Doppler frequencies f_d*cos(theta) and phases, so
the ensemble autocorrelation is exactly J0(2*pi*f_d*tau), mean power is
exactly 1, and f_d = 0 freezes the sequence. Frequency selectivity comes
from mixing a small set of independent taps across RBs with a unit-power
kernel. LOS links add a rank-one Rician specular term.

``_ChannelBank`` is the one fading implementation the engine runs: it
draws every link's sinusoids, array phases and specular term from the
link's keyed fading stream (:mod:`mmwsim.streams`), rotates them TTI by
TTI, and, when a slice of links is read, sums and mixes them into its
channel or into its receive-port coupling. At f_d = 0 the bank is static:
it still takes every draw, which fixes the stream layout, but makes no
rotations, keeps only its sinusoids' sums, never advances, and mixes each
link slice only once.

The bank builds its sinusoids over contiguous link ranges, one per CPU
this process may run on, on a thread pool made and shut down in the
build. The work is elementwise numpy, which releases the GIL, and every
link draws from its own keyed stream, so each link gets the same bits
whatever the split. A slice's sums are per-row reductions and its
coupling is elementwise, so a slice gets the rows the whole bank gives.
"""

import math
import os

import numpy as np

from .antenna import port_coupling_series
from .config import POL_SLANT_DEG, TTI_DURATION
from .streams import FADING_STREAM, keyed_streams

# matches the pinned Doppler arithmetic (120 kmph @ 28 GHz -> 3113 Hz)
C_LIGHT = 2.998e8  # m/s

# OpenBLAS runs a gemm whose m*n*k is at most this on the calling thread.
# Above it a helper thread joins, then busy-waits through the rest of the
# TTI, which doubles the CPU a run burns and starves a second worker.
SERIAL_GEMM_MNK = 65536

# sinusoids summed per fading sequence
N_SINUSOIDS = 12
# the channel bank turns stream draws into phasors this many links at a
# time: about a megabyte of angles per pass at paper scale
_PHASOR_CHUNK = 32


class ChannelModelError(ValueError):
    """Raised outside a model's validity range."""


def doppler_frequency(velocity_kmph, carrier_frequency):
    """Maximum Doppler shift f_d = (v / 3.6) * fc / c, in Hz."""
    if velocity_kmph < 0:
        raise ChannelModelError("velocity must be >= 0")
    return (velocity_kmph / 3.6) * carrier_frequency / C_LIGHT


def los_probability(d2d):
    """Urban-macro LOS probability for an outdoor UE below 13 m height."""
    d = np.asarray(d2d, dtype=float)
    ratio = 18.0 / np.maximum(d, 18.0)
    p = ratio + np.exp(-np.maximum(d, 18.0) / 63.0) * (1.0 - ratio)
    out = np.where(d <= 18.0, 1.0, p)
    return out if out.ndim else float(out)


def pathloss_uma(d2d, fc, h_bs, h_ut, los):
    """Urban-macro pathloss in dB. ``fc`` in Hz; valid for d2d >= 10 m.

    LOS below the breakpoint:  28 + 22 log10(d3d) + 20 log10(fc_GHz)
    above:                     28 + 40 log10(d3d) + 20 log10(fc_GHz)
                               - 9 log10(dbp^2 + (h_bs - h_ut)^2)
    NLOS is max(LOS, 13.54 + 39.08 log10(d3d) + 20 log10(fc_GHz)
                - 0.6 (h_ut - 1.5)).
    """
    d = np.asarray(d2d, dtype=float)
    if np.any(d < 10.0):
        raise ChannelModelError("d2d below 10 m model validity")
    if h_bs <= h_ut:
        raise ChannelModelError("h_bs must exceed h_ut")

    fc_ghz = fc / 1e9
    dh = h_bs - h_ut
    d3d = np.sqrt(d ** 2 + dh ** 2)
    # effective antenna heights (1 m environment height)
    dbp = 4.0 * (h_bs - 1.0) * (h_ut - 1.0) * fc / C_LIGHT

    pl1 = 28.0 + 22.0 * np.log10(d3d) + 20.0 * math.log10(fc_ghz)
    pl2 = (28.0 + 40.0 * np.log10(d3d) + 20.0 * math.log10(fc_ghz)
           - 9.0 * math.log10(dbp ** 2 + dh ** 2))
    pl_los = np.where(d <= dbp, pl1, pl2)

    pl_nlos = (13.54 + 39.08 * np.log10(d3d) + 20.0 * math.log10(fc_ghz)
               - 0.6 * (h_ut - 1.5))
    out = np.where(np.asarray(los, dtype=bool), pl_los,
                   np.maximum(pl_los, pl_nlos))
    return out if out.ndim else float(out)


def unit_phasor(x, out=None):
    """exp(1j * x) for real ``x``, as complex128, into ``out`` if given.

    Written as cos and sin into the real and imaginary parts, which gives
    the same bits as ``np.exp(1j * x)`` without the complex cast of ``x``
    and the complex exponential.
    """
    if out is None:
        out = np.empty(np.shape(x), dtype=np.complex128)
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    return out


def freq_mixing_kernel(n_rb, coherence_bandwidth_rb):
    """Unit-power tap-to-RB kernel with ~0.5 correlation at the coherence
    bandwidth. Shape (n_taps, n_rb); columns have unit 2-norm."""
    cb = max(coherence_bandwidth_rb, 1)
    sigma = 0.6 * cb
    n_taps = min(n_rb, int(math.ceil(n_rb / cb)) + 2)
    centers = np.linspace(0.0, n_rb - 1.0, n_taps)
    rb = np.arange(n_rb, dtype=float)
    w = np.exp(-((rb[None, :] - centers[:, None]) ** 2) / (2.0 * sigma ** 2))
    return w / np.linalg.norm(w, axis=0, keepdims=True)


def sinusoids(f_d, theta, phase, out=(None, None, None)):
    """Complex128 initial phasors and per-TTI rotations of sum-of-sinusoids
    sequences from the Doppler angles ``theta`` and phases ``phase`` (equal
    shapes, ``N_SINUSOIDS`` sinusoids on the last axis).

    ``out`` may give C-contiguous buffers of that shape for the initial
    phasors (complex128), the Doppler phase steps (float64) and the
    rotations (complex128); missing ones are allocated."""
    state0, omega, step = out
    state0 = unit_phasor(phase, state0)
    state0 /= math.sqrt(N_SINUSOIDS)
    omega = np.cos(theta, out=omega)
    omega *= 2.0 * math.pi * f_d
    omega *= TTI_DURATION
    return state0, unit_phasor(omega, step)


def mix_taps(taps, kernel, out=None):
    """Replace the tap axis 1 of ``taps`` with the RB axis of the
    (n_taps, n_rb) ``kernel``, into the front of the flat buffer ``out`` of
    the taps' dtype if one is given.

    The (rows x n_taps) x (n_taps x n_rb) product is issued in row chunks
    small enough for OpenBLAS to keep on the calling thread. A gemm
    gives every row of the product the same bits whatever its row count,
    so the chunked product equals the single one exactly.
    """
    n_taps, n_rb = kernel.shape
    kern = kernel.astype(taps.dtype)
    rows = np.moveaxis(taps, 1, -1)
    lead = rows.shape[:-1]
    rows = rows.reshape(-1, n_taps)
    n = rows.shape[0]
    out = np.empty((n, n_rb), kern.dtype) if out is None \
        else _front(out, (n, n_rb))
    step = max(2, SERIAL_GEMM_MNK // kern.size)
    # a one-row product runs as a gemv, whose bits differ from a gemm's:
    # issue a lone row twice, and end on two rows, recomputing one row
    # identically
    if n == 1:
        out[:] = np.dot(np.repeat(rows, 2, axis=0), kern)[:1]
    else:
        for lo in range(0, n, step):
            lo = min(lo, n - 2)
            np.dot(rows[lo:lo + step], kern, out=out[lo:lo + step])
    return np.moveaxis(out.reshape(lead + (n_rb,)), -1, 1)


def _front(buf, shape):
    """The front of the flat buffer ``buf`` as a C-contiguous array of
    ``shape``: ``np.empty(shape)`` without the allocation."""
    return buf[:math.prod(shape)].reshape(shape)


def depolarization_coherence(f_d, depol_coherence_time):
    """Amplitude retained by the cross-polarized (unintended-plane) field.

    The scattered cross-polar component phase-wanders over the decoherence
    window; the coherent fraction exp(-(2 pi f_d tau)^2 / 2) shrinks with
    velocity and the rest is re-injected as diffuse interference by the
    engine. 1.0 when static.
    """
    x = 2.0 * math.pi * f_d * depol_coherence_time
    return math.exp(-0.5 * x * x)


def _cpu_count():
    """The number of CPUs this process may run on, read at every call."""
    return len(os.sched_getaffinity(0))


def _link_parts(n_links):
    """Contiguous slices of ``range(n_links)`` made of whole
    ``_PHASOR_CHUNK``s, as even as chunks allow, one per CPU."""
    n_chunks = -(-n_links // _PHASOR_CHUNK)
    n_parts = max(1, min(n_chunks, _cpu_count()))
    edges = [n_chunks * i // n_parts * _PHASOR_CHUNK
             for i in range(n_parts)] + [n_links]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _in_parts(work, jobs):
    """Call ``work(*job)`` for every job: the first on the calling thread,
    the others on a thread pool that is shut down before this returns.

    A worker thread must not allocate large arrays: glibc gives each thread
    its own malloc arena, and what a worker frees there stays part of the
    process's memory, so the caller allocates and passes in the scratch.
    The first exception, in job order, is raised once every job has ended.
    """
    # imported here, so that importing mmwsim does not load the pool
    from concurrent.futures import ThreadPoolExecutor
    first, *rest = jobs
    with ThreadPoolExecutor(max_workers=max(1, len(rest))) as pool:
        futures = [pool.submit(work, *job) for job in rest]
        work(*first)
        for future in futures:
            future.result()


class _ChannelBank:
    """Per-TTI MIMO channel matrices for every explicit link.

    Scattered fading is a bank of sum-of-sinusoids sequences (independent
    per tap and antenna pair) advanced by phasor recurrence; LOS links add
    a rank-one specular term carrying K/(K+1) of the power. Two extra
    sequences per link drive the cross-polar leakage phase and the
    depolarization phase wander. The bank keeps only what the recurrence
    carries: the sinusoids ``state``, rotated in place by ``step``, the
    specular phasors and per-link constants; a slice's taps, specular
    term and port coupling are built when it is read. A static bank
    (f_d = 0) keeps each sequence's ``sums`` and each link slice's channel
    instead: its ``state``, ``step`` and ``rice_step`` are None.

    Only the receive-port coupling depends on the receiver polarization:
    ``current`` returns the channel before it, and ``coupling`` gives it
    for either polarization.
    """

    def __init__(self, cfg, links, f_d):
        self.cfg = cfg
        self.n_rx, self.n_tx = cfg.n_rx, cfg.n_tx
        self.kernel = freq_mixing_kernel(cfg.n_rb, cfg.coherence_bandwidth_rb)
        self.n_taps = self.kernel.shape[0]
        self.n_scatter = self.n_taps * self.n_rx * self.n_tx
        self.n_links = n_links = links.n_links

        seq_shape = (self.n_scatter + 2, N_SINUSOIDS)
        self.a_rx = np.empty((n_links, self.n_rx), dtype=np.complex64)
        self.a_tx = np.empty((n_links, self.n_tx), dtype=np.complex64)
        self.rice_state = np.empty(n_links, dtype=np.complex64)
        # at f_d = 0 every rotation would be exactly 1: none are made, and
        # each chunk's phasors are summed as they are built
        self.state = self.step = self.rice_step = self.sums = None
        if f_d == 0:
            self.sums = np.empty((n_links, seq_shape[0]), dtype=np.complex64)
            scratch_types = (np.complex128, np.complex64)
        else:
            self.state = np.empty((n_links,) + seq_shape, dtype=np.complex64)
            self.step = np.empty_like(self.state)
            self.rice_step = np.empty(n_links, dtype=np.complex64)
            scratch_types = (np.complex128, np.float64, np.complex128)

        # Each link's stream holds, in order: the Doppler angles of every
        # sinusoid, then their phases, the rx and tx array phases, the
        # specular phase and the specular Doppler angle. The specular
        # draws happen for every link so the stream layout does not depend
        # on the LOS outcome. uniform(0, 2 pi) is 0.0 + 2 pi * random(), so
        # one random() call per link, scaled by 2 pi, gives every angle.
        n_ang = math.prod(seq_shape)
        edges = np.cumsum([n_ang, n_ang, self.n_rx, self.n_tx, 1])

        def build(part, angles, scratch):
            streams = keyed_streams(cfg.seed, FADING_STREAM,
                                    links.cell[part], links.ue[part])
            for lo in range(part.start, part.stop, _PHASOR_CHUNK):
                chunk = slice(lo, min(lo + _PHASOR_CHUNK, part.stop))
                n = chunk.stop - lo
                ang = angles[:n]
                for row in ang:
                    next(streams).random(out=row)
                ang *= 2 * math.pi
                theta, phase, rx, tx, rice, rice_doppler = np.split(
                    ang, edges, axis=1)
                phase = phase.reshape((-1,) + seq_shape)
                bufs = [buf[:n] for buf in scratch]
                if self.step is None:
                    phasors = unit_phasor(phase, bufs[0])
                    phasors /= math.sqrt(N_SINUSOIDS)
                    bufs[1][...] = phasors
                    bufs[1].sum(axis=-1, out=self.sums[chunk])
                else:
                    self.state[chunk], self.step[chunk] = sinusoids(
                        f_d, theta.reshape((-1,) + seq_shape), phase, bufs)
                    self.rice_step[chunk] = unit_phasor(
                        2 * math.pi * f_d * np.cos(rice_doppler[:, 0])
                        * TTI_DURATION)
                self.a_rx[chunk] = unit_phasor(rx)
                self.a_tx[chunk] = unit_phasor(tx)
                self.rice_state[chunk] = unit_phasor(rice[:, 0])

        chunk_shape = (_PHASOR_CHUNK,) + seq_shape
        _in_parts(build, [
            (part, np.empty((_PHASOR_CHUNK, edges[-1] + 1)),
             [np.empty(chunk_shape, dtype=t) for t in scratch_types])
            for part in _link_parts(n_links)])

        k = 10.0 ** (cfg.rician_k_db / 10.0)
        c_scat = np.where(links.los, math.sqrt(1.0 / (k + 1.0)), 1.0)
        c_spec = np.where(links.los, math.sqrt(k / (k + 1.0)), 0.0)
        # single precision end to end: channel matrices and covariance
        # sums stay complex64 (PSD by construction); inversions upcast
        self.w_scat = (links.amplitude * c_scat).astype(np.float32)
        self.w_spec = (links.amplitude * c_spec).astype(np.float32)

        self.alpha_dep = depolarization_coherence(
            f_d, cfg.depol_coherence_time)
        self.port_parity = np.arange(self.n_tx) % 2
        # a static bank keeps its channel as one array per link slice
        self._static = {}

    def coherent_fraction_sq(self, pol):
        """Coherent power fraction at the receiver's slant (1 for LPOL)."""
        rho = math.radians(POL_SLANT_DEG[pol])
        return math.cos(rho) ** 2 + math.sin(rho) ** 2 * self.alpha_dep ** 2

    def _sums(self, links, seqs, out=None):
        """The sums of the sequences ``seqs`` of ``links``: a static bank's
        ``sums``, or the sinusoids summed now, into ``out`` if given."""
        if self.state is None:
            return self.sums[links, seqs]
        return self.state[links, seqs].sum(axis=-1, out=out)

    def coupling(self, pol, links):
        """The present TTI's receive-port coupling of a ``pol`` receiver on
        the link slice ``links``, (n, n_tx) complex64, from each link's
        leakage and wander sequences."""
        leak, wander = self._sums(links, slice(-2, None)).T
        leak = leak / np.maximum(np.abs(leak), 1e-30)
        depol = self.alpha_dep * (wander / np.maximum(np.abs(wander), 1e-30))
        coup = port_coupling_series(
            self.cfg, POL_SLANT_DEG[pol], leak, depol)   # (n, 2)
        # indexing the port axis leaves it outermost in memory; the
        # engine's products take C-contiguous rows
        return np.ascontiguousarray(
            coup.astype(np.complex64)[:, self.port_parity])

    def buffers(self, n):
        """Flat complex64 buffers for ``current`` on up to ``n`` links: the
        channel ``h``, the tap sums and the specular terms."""
        size = n * self.n_rx * self.n_tx
        return {k: np.empty(size * m, dtype=np.complex64) for k, m in
                (("h", self.cfg.n_rb), ("taps", self.n_taps), ("spec", 1))}

    def current(self, links, buffers=None):
        """The present TTI's channel on the link slice ``links`` before the
        receive-port coupling, (n, n_rb, n_rx, n_tx) with the RB axis
        innermost in memory: a ``pol`` receiver sees ``h * coupling(pol,
        links)[:, None, None]``. It is built in the front of the flat
        ``buffers`` (made if not given); a static bank mixes a slice into a
        new array once, and returns it, read-only, on every later call."""
        key = links.indices(self.n_links)
        if key in self._static:
            return self._static[key]
        n = len(range(*key))
        buffers = buffers or self.buffers(n)
        taps = self._sums(links, slice(self.n_scatter),
                          _front(buffers["taps"], (n, self.n_scatter)))
        h = mix_taps(taps.reshape(n, self.n_taps, self.n_rx, self.n_tx),
                     self.kernel, None if self.state is None else buffers["h"])
        spec = _front(buffers["spec"], (n, self.n_rx, self.n_tx))
        rice = self.w_spec[links] * self.rice_state[links]
        np.multiply(rice[:, None, None] * self.a_rx[links, :, None],
                    self.a_tx[links, None, :], out=spec)
        np.multiply(self.w_scat[links, None, None, None], h, out=h)
        h += spec[:, None, :, :]
        if self.state is None:
            h.flags.writeable = False
            self._static[key] = h
        return h

    def advance(self):
        """Rotate every sinusoid and specular phasor by its per-TTI step, in
        place; a static bank (f_d = 0) does nothing."""
        if self.step is None:
            return
        self.state *= self.step
        self.rice_state *= self.rice_step
