"""The link layer's accuracy against a float64 reference.

``tests/test_link_kernels.py`` proves that the kernels keep their bits;
this file bounds how far those bits are from the exact values. The
interference covariance is the complex64 sum of b b^H over all of a UE's
kept links minus its serving link's term, and the serving link is the
strongest, so the subtraction cancels. The reference sums the interferers
alone in complex128, from the engine's own complex64 channel, port
coupling and precoders. Each ceiling sits just above the error measured
on the code as it is, so a change cannot make the link layer less
accurate unnoticed.
"""

import numpy as np
import pytest

import mmwsim.engine as engine
import mmwsim.link as link
from mmwsim import preset

# the largest error relative to tr(R_int) per velocity (kmph), just above
# the 3.05e-4 and 2.15e-4 measured at seed 1, PF/XPOL, 3 TTIs
R_INT_CEILING = {0.0: 3.2e-4, 120.0: 2.3e-4}


def _reference_r_int(links, h, port, block, psched):
    """Each UE's interference covariance of ``block``, (ue, rb, rx, rx)
    complex128: b b^H summed over its ``n_keep - 1`` interferers."""
    n_keep = links.n_keep
    cell = links.cell[block.links]
    b = (h.astype(np.complex128) * port.astype(np.complex128)) \
        @ psched[cell].astype(np.complex128)
    g = b @ np.conjugate(b).swapaxes(-1, -2)
    return g.reshape((-1, n_keep) + g.shape[1:])[:, 1:].sum(axis=1)


def _relative_errors(got, want):
    """||got - want||_F / tr(want) per (ue, rb) covariance."""
    err = np.linalg.norm(got - want, axis=(-2, -1))
    return err / np.trace(want, axis1=-2, axis2=-1).real


def _r_int_errors(velocity, monkeypatch):
    """The relative error of every covariance the link layer writes over a
    3-TTI PF/XPOL run of the small preset: the bootstrap's, two dense
    TTIs and the last TTI's demand pairs."""
    errors = []
    interference = link._LinkLayer.interference

    def checked(self, lane, h, port, block, psched=None):
        want = _reference_r_int(
            self.links, h, port, block,
            lane.psched if psched is None else psched)
        interference(self, lane, h, port, block, psched)
        got = lane.r_int[:len(want)]
        if lane.pairs is not None:
            ue, rb = lane.pairs
            ue = ue - block.ues.start
            keep = (ue >= 0) & (ue < len(want))
            got, want = got[ue[keep], rb[keep]], want[ue[keep], rb[keep]]
        errors.append(_relative_errors(got, want).ravel())

    monkeypatch.setattr(link._LinkLayer, "interference", checked)
    cfg = preset("small").replace(seed=1, scheduler="PF",
                                  ue_polarization="XPOL",
                                  ue_velocity=velocity, n_tti=3)
    engine._run_lanes([cfg])
    return np.concatenate(errors)


@pytest.mark.parametrize("velocity", sorted(R_INT_CEILING))
def test_interference_covariance_is_within_its_ceiling_of_float64(
        velocity, monkeypatch):
    err = _r_int_errors(velocity, monkeypatch)
    assert err.size > 0 and np.isfinite(err).all()
    assert err.max() < R_INT_CEILING[velocity], (
        np.median(err), np.quantile(err, 0.999), err.max())
