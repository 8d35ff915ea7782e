"""The link layer's accuracy against a float64 reference.

``tests/test_link_kernels.py`` proves that the kernels keep their bits;
this file bounds how far those bits are from the exact values. The
interference covariance is the complex64 sum of b b^H over all of a UE's
kept links minus its serving link's term, and the serving link is the
strongest, so the subtraction cancels. The reference sums the interferers
alone in complex128, from the engine's own complex64 channel, port
coupling and precoders. From that R_int, the engine's serving channel and
its precoders, it then forms each covariance in complex128 and takes the
MMSE SINR by a Cholesky factorisation, for the per-layer SINRs and the
rates per RB that ``rates`` writes and for the scores that precoder
selection ranks exactly. Each ceiling sits just above the error measured
on the code as it is, so a change cannot make the link layer less
accurate unnoticed.
"""

import functools

import numpy as np
import pytest

import mmwsim.engine as engine
import mmwsim.link as link
from mmwsim import preset
from mmwsim.config import TTI_DURATION

# the largest relative error per quantity and velocity (kmph), just above
# the value measured at seed 1, PF/XPOL, 3 TTIs (see ``_errors``)
CEILINGS = {
    # relative to tr(R_int): 3.05e-4 and 2.15e-4 measured
    "r_int": {0.0: 3.2e-4, 120.0: 2.3e-4},
    # relative to the reference SINR of a layer that carries power:
    # 2.04e-3 and 2.68e-4 measured
    "sinr": {0.0: 2.1e-3, 120.0: 2.8e-4},
    # relative to the reference bits of an RB: 1.49e-4 and 8.78e-5
    "rate": {0.0: 1.6e-4, 120.0: 9.2e-5},
    # relative to max(|reference score|, 1), as selection compares them:
    # 1.92e-5 and 7.06e-6
    "score": {0.0: 2.0e-5, 120.0: 7.4e-6},
}


def _reference_r_int(links, h, port, block, psched):
    """Each UE's interference covariance of ``block``, (ue, rb, rx, rx)
    complex128: b b^H summed over its ``n_keep - 1`` interferers."""
    n_keep = links.n_keep
    cell = links.cell[block.links]
    b = (h.astype(np.complex128) * port.astype(np.complex128)) \
        @ psched[cell].astype(np.complex128)
    g = b @ np.conjugate(b).swapaxes(-1, -2)
    return g.reshape((-1, n_keep) + g.shape[1:])[:, 1:].sum(axis=1)


def _reference_sinr(eff, r_int, sn_scale, noise):
    """Per-layer MMSE SINR u / (1 - u), u = a^H R^-1 a, of the precoded
    columns ``eff`` (..., rx, layer) against the complex128 covariance
    R = sn_scale (R_int + E E^H) + noise I, with R = L L^H and
    u = ||L^-1 a||^2."""
    eff = eff.astype(np.complex128)
    cov = sn_scale * (r_int + eff @ np.conjugate(eff).swapaxes(-1, -2))
    idx = np.arange(cov.shape[-1])
    cov[..., idx, idx] += noise
    y = np.linalg.solve(np.linalg.cholesky(cov), eff)
    u = (y.real ** 2 + y.imag ** 2).sum(axis=-2)
    return u / (1.0 - u)


def _relative_errors(got, want):
    """||got - want||_F / tr(want) per (ue, rb) covariance."""
    err = np.linalg.norm(got - want, axis=(-2, -1))
    return err / np.trace(want, axis1=-2, axis2=-1).real


@functools.cache
def _errors(velocity):
    """The relative errors of every covariance, per-layer SINR, rate per
    RB and exact selection score the link layer computes over a 3-TTI
    PF/XPOL run of the small preset: the bootstrap's, two dense TTIs and
    the last TTI's demand pairs."""
    errors = {name: [] for name in CEILINGS}
    # the present block's reference R_int and serving channel
    ref = {}
    sinrs = []
    layer = link._LinkLayer
    interference, rates, select, score = \
        layer.interference, layer.rates, layer.select, layer._score
    real_sinr = link.mmse_sinr_from_covariance

    def recorded_sinr(effective, covariance):
        sinrs.append(real_sinr(effective, covariance))
        return sinrs[-1]

    def checked_interference(self, lane, h, port, block):
        want = ref["r_int"] = _reference_r_int(
            self.links, h, port, block, lane.psched)
        interference(self, lane, h, port, block)
        got = lane.r_int[:len(want)]
        if lane.pairs is not None:
            ue, rb = lane.pairs
            ue = ue - block.ues.start
            keep = (ue >= 0) & (ue < len(want))
            got, want = got[ue[keep], rb[keep]], want[ue[keep], rb[keep]]
        errors["r_int"].append(_relative_errors(got, want).ravel())

    def checked_rates(self, lane, block, h_serv):
        lo, hi = block.ues.start, block.ues.stop
        eff = h_serv.astype(np.complex128) \
            @ lane.p_own[lo:hi, None].astype(np.complex128)
        want = _reference_sinr(eff, ref["r_int"], lane.sn_scale, self.noise)
        if lane.pairs is None:
            ue, rb = slice(lo, hi), slice(None)
        else:
            # the grants, as ``rates`` finds them
            cell, rb = np.nonzero((lane.rb_to_ue >= lo)
                                  & (lane.rb_to_ue < hi))
            ue = lane.rb_to_ue[cell, rb]
            want = want[ue - lo, rb]
        del sinrs[:]
        rates(self, lane, block, h_serv)
        got = sinrs[-1]
        cfg = self.cfg
        bits = link.sinr_to_rate(
            want, cfg.rb_bandwidth, TTI_DURATION, cfg.shannon_efficiency,
            cfg.spectral_efficiency_cap).sum(axis=-1)
        carried = want > 0
        assert np.all(got[~carried] == 0)
        errors["sinr"].append(abs(got - want)[carried] / want[carried])
        errors["rate"].append(
            (abs(lane.csi_rates[ue, rb] - bits) / bits).ravel())

    def checked_select(self, lanes, block, h_serv):
        ref["h_sel"] = h_serv[:, self.select_rb]
        select(self, lanes, block, h_serv)

    def checked_score(self, scores, pairs, eff, base, sn_scale):
        score(self, scores, pairs, eff, base, sn_scale)
        ue, entry = np.nonzero(pairs)
        h_sel = ref["h_sel"][ue].astype(np.complex128)
        want = np.log2(1.0 + _reference_sinr(
            h_sel @ self.cand[entry, None].astype(np.complex128),
            ref["r_int"][ue][:, self.select_rb], sn_scale, self.noise)) \
            .sum(axis=(1, 2))
        errors["score"].append(
            abs(scores[ue, entry] - want) / np.maximum(abs(want), 1.0))

    cfg = preset("small").replace(seed=1, scheduler="PF",
                                  ue_polarization="XPOL",
                                  ue_velocity=velocity, n_tti=3)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(link, "mmse_sinr_from_covariance", recorded_sinr)
        patch.setattr(layer, "interference", checked_interference)
        patch.setattr(layer, "rates", checked_rates)
        patch.setattr(layer, "select", checked_select)
        patch.setattr(layer, "_score", checked_score)
        engine._run_lanes([cfg])
    return {name: np.concatenate(err) for name, err in errors.items()}


def _check(name, velocity):
    err = _errors(velocity)[name]
    assert err.size > 0 and np.isfinite(err).all()
    assert err.max() < CEILINGS[name][velocity], (
        np.median(err), np.quantile(err, 0.999), err.max())


@pytest.mark.parametrize("velocity", sorted(CEILINGS["r_int"]))
def test_interference_covariance_is_within_its_ceiling_of_float64(velocity):
    _check("r_int", velocity)


@pytest.mark.parametrize("velocity", sorted(CEILINGS["sinr"]))
@pytest.mark.parametrize("name", ["sinr", "rate"])
def test_rates_are_within_their_ceilings_of_float64(name, velocity):
    _check(name, velocity)


@pytest.mark.parametrize("velocity", sorted(CEILINGS["score"]))
def test_selection_scores_are_within_their_ceiling_of_float64(velocity):
    _check("score", velocity)
