"""BS element pattern, vertical array factor and polarization coupling."""

import math

import numpy as np
import pytest

from mmwsim import ScenarioConfig, preset
from mmwsim.antenna import (array_factor, combined_gain, element_gain,
                            port_coupling_series)
from mmwsim.channel import _ChannelBank
from mmwsim.engine import _Linkset

NO_LEAK = ScenarioConfig(xpd_mean=float("inf"))


def test_element_gain_peak_and_half_power_points():
    cfg = ScenarioConfig()
    assert element_gain(cfg, 0.0, 0.0) == 8.0
    # 12 * (az / 65)^2 = 3 dB at az = 65/2
    assert element_gain(cfg, 32.5, 0.0) == pytest.approx(8.0 - 3.0)
    assert element_gain(cfg, 0.0, 32.5) == pytest.approx(8.0 - 3.0)
    # even in both angles
    assert element_gain(cfg, -40.0, 0.0) == element_gain(cfg, 40.0, 0.0)
    assert element_gain(cfg, 0.0, -20.0) == element_gain(cfg, 0.0, 20.0)


def test_element_gain_backlobe_floor():
    cfg = ScenarioConfig()
    # az and el losses saturate; total loss capped at the front-back ratio
    assert element_gain(cfg, 180.0, 0.0) == 8.0 - 30.0
    assert element_gain(cfg, 180.0, 80.0) == 8.0 - 30.0


def test_element_gain_elevation_is_relative_to_mechanical_downtilt():
    cfg = ScenarioConfig(mechanical_downtilt_deg=10.0)
    assert element_gain(cfg, 0.0, 10.0) == 8.0
    assert element_gain(cfg, 0.0, 10.0 + 32.5) == pytest.approx(5.0)


def test_array_factor_broadside_peak_is_10logn():
    cfg = ScenarioConfig()  # 2 panels x 2 elements, electrical downtilt 90
    assert cfg.vertical_panels * cfg.elements_per_panel == 4
    assert cfg.electrical_downtilt_deg - 90.0 == 0.0
    assert array_factor(cfg, 0.0) == pytest.approx(10.0 * math.log10(4.0))
    # away from broadside the coherent gain drops
    assert array_factor(cfg, 20.0) < array_factor(cfg, 0.0)


def test_array_factor_single_element_is_flat_zero():
    cfg = ScenarioConfig(vertical_panels=1, elements_per_panel=1)
    for el in (-60.0, 0.0, 45.0):
        assert array_factor(cfg, el) == 0.0


def test_array_factor_steering_moves_the_peak():
    cfg = ScenarioConfig(electrical_downtilt_deg=100.0)  # steer to +10 deg
    gains = {el: array_factor(cfg, el) for el in (0.0, 10.0, 20.0)}
    assert gains[10.0] == pytest.approx(10.0 * math.log10(4.0))
    assert gains[10.0] > gains[0.0]
    assert gains[10.0] > gains[20.0]


def test_combined_gain_is_element_plus_array():
    cfg = ScenarioConfig()
    az, el = 15.0, 5.0
    assert combined_gain(cfg, az, el) == pytest.approx(
        element_gain(cfg, az, el) + array_factor(cfg, el))


def test_from_scenario_copies_antenna_fields():
    # the pattern reads the scenario it is given: a replaced downtilt
    # steers the array to 6 deg, a replaced maximum gain lifts the peak
    base = preset("small").replace(max_element_gain_dbi=5.0)
    scen = base.replace(electrical_downtilt_deg=96.0)
    assert element_gain(scen, 0.0, 0.0) == 5.0
    assert combined_gain(scen, 0.0, 6.0) == pytest.approx(
        element_gain(scen, 0.0, 6.0) + 10.0 * math.log10(4.0))
    assert combined_gain(scen, 0.0, 6.0) > combined_gain(base, 0.0, 6.0)
    assert combined_gain(scen, 0.0, 0.0) < combined_gain(base, 0.0, 0.0)


def _leakage_power(xpd_mean):
    """The leaked power fraction g, read off an LPOL receiver's coupling
    at zero leakage phase: over a common factor, the +45 and -45 deg ports
    see 1 - sqrt(g) and 1 + sqrt(g)."""
    c = port_coupling_series(ScenarioConfig(xpd_mean=xpd_mean), 0.0,
                             np.ones(1), np.ones(1))[0]
    return ((c[1] - c[0]) / (c[1] + c[0])).real ** 2


def test_leakage_power_from_xpd():
    assert _leakage_power(8.0) == pytest.approx(10.0 ** -0.8)
    assert _leakage_power(float("inf")) == 0.0


def test_coupling_matrix_no_leakage_is_pure_slant_projection():
    # without leakage each port projects onto the receiver axis (cos of the
    # slant difference), whatever the leakage phase
    leak = np.exp(1j * np.linspace(0.0, 6.0, 5))
    ones = np.ones(5, dtype=complex)
    root2 = 1.0 / math.sqrt(2.0)
    for rx_slant, row in ((0.0, [root2, root2]), (90.0, [root2, -root2])):
        assert np.allclose(port_coupling_series(NO_LEAK, rx_slant, leak, ones),
                           row)


def test_coupling_matrix_columns_keep_unit_power_for_any_phase():
    # a port's power on the receiver axis (LPOL) and on the orthogonal axis
    # (XPOL with no depolarization loss) sums to one for any leakage phase
    rng = np.random.default_rng(5)
    leak = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 50))
    ones = np.ones(50, dtype=complex)
    lpol = port_coupling_series(ScenarioConfig(), 0.0, leak, ones)
    xpol = port_coupling_series(ScenarioConfig(), 90.0, leak, ones)
    assert np.allclose(np.abs(lpol) ** 2 + np.abs(xpol) ** 2, 1.0)


def test_polarization_coupling_draws_reproducibly():
    # the engine draws each link's leakage and wander phases from its keyed
    # fading stream: the same seed gives the same port coupling
    links = _Linkset(cell=np.array([0, 1, 2]), ue=np.array([0, 0, 1]),
                     n_keep=1, serving=np.zeros(3, dtype=int),
                     amplitude=np.ones(3), los=np.zeros(3, dtype=bool))
    cfg = preset("small").replace(n_rb=6, ue_polarization="XPOL")
    a, b, other = (
        _ChannelBank(c, links, 100.0).coupling("XPOL", slice(None))
        for c in (cfg, cfg, cfg.replace(seed=2)))
    assert a.shape == (3, 4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, other)


def test_port_coupling_series_lpol_ignores_depolarization():
    leak = np.ones(4, dtype=complex)
    root2 = 1.0 / math.sqrt(2.0)
    for depol_scale in (1.0, 0.3, 0.0):
        c = port_coupling_series(NO_LEAK, 0.0, leak, depol_scale * leak)
        assert np.allclose(c, root2)


def test_port_coupling_series_xpol_rides_the_depolarized_plane():
    leak = np.ones(3, dtype=complex)
    root2 = 1.0 / math.sqrt(2.0)
    c = port_coupling_series(NO_LEAK, 90.0, leak, np.full(3, 0.5 + 0j))
    # sin(+-45) = +-1/sqrt(2), scaled by the 0.5 coherence factor;
    # the sign flip between ports is what the codebook is closed under
    assert np.allclose(c[:, 0], 0.5 * root2)
    assert np.allclose(c[:, 1], -0.5 * root2)


def test_port_coupling_series_mean_power_halves_per_port():
    # +/-45 ports against one rx axis: phase-averaged |c|^2 is 1/2 per port
    rng = np.random.default_rng(7)
    n = 4000
    leak = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))
    wander = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))
    for rx_slant in (0.0, 90.0):
        c = port_coupling_series(ScenarioConfig(xpd_mean=8.0), rx_slant, leak,
                                 wander)
        assert np.mean(np.abs(c) ** 2, axis=0) == pytest.approx(
            [0.5, 0.5], abs=0.05)
