"""Large-scale and small-scale channel models for the urban-macro layout.

Pathloss follows the TR 38.901 urban-macro formulas (dual-slope LOS with a
breakpoint, NLOS floored by the LOS curve). Small-scale fading is a
sum-of-sinusoids Jakes generator: each sequence sums ``n_sinusoids`` unit
phasors with iid random Doppler frequencies f_d*cos(theta) and phases, so
the ensemble autocorrelation is exactly J0(2*pi*f_d*tau), mean power is
exactly 1, and f_d = 0 freezes the sequence. Frequency selectivity comes
from mixing a small set of independent taps across RBs with a unit-power
kernel. LOS links add a rank-one Rician specular term.
"""

import math
from dataclasses import dataclass

import numpy as np

# matches the pinned Doppler arithmetic (120 kmph @ 28 GHz -> 3113 Hz)
C_LIGHT = 2.998e8  # m/s

# OpenBLAS runs a gemm whose m*n*k is at most this on the calling thread.
# Above it a helper thread joins, then busy-waits through the rest of the
# TTI, which doubles the CPU a run burns and starves a second worker.
SERIAL_GEMM_MNK = 65536


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


def unit_phasor(x):
    """exp(1j * x) for real ``x``, as complex128.

    Written as cos and sin into the real and imaginary parts, which gives
    the same bits as ``np.exp(1j * x)`` without the complex cast of ``x``
    and the complex exponential.
    """
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


@dataclass
class FadingDesign:
    """Run-wide fading parameters shared by every link (same f_d, grid)."""
    f_d: float
    tti: float
    n_rb: int
    coherence_bandwidth_rb: int = 5
    n_sinusoids: int = 12

    def __post_init__(self):
        self.kernel = freq_mixing_kernel(self.n_rb, self.coherence_bandwidth_rb)
        self.n_taps = self.kernel.shape[0]

    def sinusoids(self, theta, phase):
        """Complex128 initial phasors and per-TTI rotations from the
        Doppler angles ``theta`` and phases ``phase`` (any equal shapes)."""
        state0 = unit_phasor(phase)
        state0 /= math.sqrt(self.n_sinusoids)
        omega = np.cos(theta)
        omega *= 2.0 * math.pi * self.f_d
        omega *= self.tti
        return state0, unit_phasor(omega)

    def mix_taps(self, taps, tap_axis=1):
        """Replace the size-n_taps axis ``tap_axis`` with an RB axis.

        The (rows x n_taps) x (n_taps x n_rb) product is issued in row chunks
        small enough for OpenBLAS to keep on the calling thread. A gemm
        gives every row of the product the same bits whatever its row count,
        so the chunked product equals the single one exactly.
        """
        kern = self.kernel.astype(taps.dtype)
        rows = np.moveaxis(taps, tap_axis, -1)
        lead = rows.shape[:-1]
        rows = rows.reshape(-1, self.n_taps)
        n = rows.shape[0]
        out = np.empty((n, self.n_rb), dtype=kern.dtype)
        step = max(2, SERIAL_GEMM_MNK // kern.size)
        for lo in range(0, n, step):
            # a one-row product runs as a gemv, whose bits differ from a
            # gemm's: end on two rows, recomputing one row identically
            lo = max(min(lo, n - 2), 0)
            np.dot(rows[lo:lo + step], kern, out=out[lo:lo + step])
        return np.moveaxis(out.reshape(lead + (self.n_rb,)), -1, tap_axis)


class SosProcess:
    """Bank of independent sum-of-sinusoids sequences, advanced per TTI.

    ``current()`` returns the bank's complex gains at the present TTI;
    ``advance()`` rotates every sinusoid by its per-TTI phase step. The
    recurrence never stores the time axis, so memory stays flat no matter
    how long the run is.

    The process takes ownership of ``state0``: it becomes the running state
    and is rotated in place, so pass a copy to keep the initial phasors.
    """

    def __init__(self, state0, step):
        self.state = state0
        self.step = step

    def current(self):
        return self.state.sum(axis=-1)

    def advance(self):
        self.state *= self.step


def depolarization_coherence(f_d, depol_coherence_time):
    """Amplitude retained by the cross-polarized (unintended-plane) field.

    The scattered cross-polar component phase-wanders over the decoherence
    window; the coherent fraction exp(-(2 pi f_d tau)^2 / 2) shrinks with
    velocity and the rest is re-injected as diffuse interference by the
    engine. 1.0 when static.
    """
    x = 2.0 * math.pi * f_d * depol_coherence_time
    return math.exp(-0.5 * x * x)

