"""BS antenna pattern, vertical array factor and polarization coupling.

Element pattern is the standard parabolic sector model:

    A_az = min(12 (az / bw_az)^2, FBR)
    A_el = min(12 (el / bw_el)^2, SLA_v)
    G    = G_max - min(A_az + A_el, FBR)

The vertical stack of ``vertical_panels * elements_per_panel`` elements is a
uniform half-wavelength array; electrical downtilt is applied as the array
steering phase (90 deg is zenith-referenced boresight, i.e. broadside), while
mechanical downtilt rotates the element pattern's coordinate frame.

Every function reads its parameters off the :class:`ScenarioConfig` it is
given.
"""

import math

import numpy as np


def element_gain(cfg, azimuth_deg, elevation_deg):
    """Single-element gain in dBi for angles relative to boresight.

    Azimuth cut loss saturates at the front-back ratio, elevation cut at the
    side-lobe floor; the combined loss is again capped by the front-back
    ratio. Even in both angles by construction.
    """
    az = np.asarray(azimuth_deg, dtype=float)
    el = np.asarray(elevation_deg, dtype=float) - cfg.mechanical_downtilt_deg
    a_az = np.minimum(
        12.0 * (az / cfg.azimuth_3db_beamwidth_deg) ** 2,
        cfg.front_back_ratio_db)
    a_el = np.minimum(
        12.0 * (el / cfg.elevation_3db_beamwidth_deg) ** 2,
        cfg.sla_v_db)
    loss = np.minimum(a_az + a_el, cfg.front_back_ratio_db)
    out = cfg.max_element_gain_dbi - loss
    return out if out.ndim else float(out)


def array_factor(cfg, elevation_deg):
    """Coherent gain (dB) of the vertical stack toward ``elevation_deg``.

    Half-wavelength spacing; amplitude-normalized so the steered direction
    gets 10*log10(N) and a single element gets 0 dB everywhere.
    """
    n = cfg.vertical_panels * cfg.elements_per_panel
    el = np.radians(np.asarray(elevation_deg, dtype=float))
    # zenith-referenced downtilt: 90 deg steers to the horizon
    steer = math.radians(cfg.electrical_downtilt_deg - 90.0)
    # phase step between adjacent elements, d = lambda/2
    psi = math.pi * (np.sin(el) - math.sin(steer))
    idx = np.arange(n)
    total = np.exp(1j * np.multiply.outer(psi, idx)).sum(axis=-1)
    amp = np.abs(total) / math.sqrt(n)
    out = 20.0 * np.log10(np.maximum(amp, 1e-30))
    return out if out.ndim else float(out)


def combined_gain(cfg, azimuth_deg, elevation_deg):
    """Element pattern plus array factor, dB."""
    return (element_gain(cfg, azimuth_deg, elevation_deg)
            + array_factor(cfg, elevation_deg))


def port_coupling_series(cfg, rx_slant_deg, leakage, depol):
    """Per-TTI coupling scalars on the receiver's own axis, one per tx port.

    The dual-polarized transmitter's ports sit at +/- ``bs_pol_slant_deg``
    plus the mechanical slant; the single-polarized receiver at
    ``rx_slant_deg`` (0 is the intended plane: LPOL at 0, XPOL at 90).
    ``xpd_mean`` sets how much power the channel leaks into the orthogonal
    polarization (inf = none). ``leakage`` is a unit-magnitude
    Doppler-correlated phasor series (n,), shared by both ports; ``depol``
    multiplies whatever arrives in the unintended plane (coherence loss
    times wandering phase), which is the receiver's whole signal for XPOL
    and nothing for LPOL.
    """
    g = 0.0 if math.isinf(cfg.xpd_mean) else 10.0 ** (-cfg.xpd_mean / 10.0)
    rho = math.radians(rx_slant_deg)
    slant, mech = cfg.bs_pol_slant_deg, cfg.mechanical_slant_deg
    tx = np.radians(np.asarray((slant + mech, -slant + mech), dtype=float))
    leak = np.sqrt(g) * np.asarray(leakage, dtype=complex)[:, None]
    plane0 = np.cos(tx)[None, :] - leak * np.sin(tx)[None, :]
    plane90 = np.sin(tx)[None, :] + leak * np.cos(tx)[None, :]
    depol = np.asarray(depol, dtype=complex)[:, None]
    out = math.cos(rho) * plane0 + math.sin(rho) * depol * plane90
    return out / math.sqrt(1.0 + g)
