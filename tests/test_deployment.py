"""Hex layout, sector geometry, UE placement and attachment."""

import math

import numpy as np
import pytest

from mmwsim import DeploymentError, build_hex_layout, drop_ues, preset
from mmwsim.deployment import dump_layout_csv, sector_contains
from mmwsim.engine import _build_linkset


@pytest.mark.parametrize("rings,n_sites", [(0, 1), (1, 7), (2, 19), (3, 37)])
def test_ring_counts(rings, n_sites):
    layout = build_hex_layout(rings, 500.0, 60.0)
    assert layout.site_xy.shape == (n_sites, 2)
    assert layout.boresight_deg.shape == (3 * n_sites,)


def test_center_site_and_ring_distances():
    layout = build_hex_layout(2, 500.0, 60.0)
    pos = layout.site_xy
    assert pos[0].tolist() == [0.0, 0.0]
    d_center = np.hypot(pos[:, 0], pos[:, 1])
    # ring 1 = sites 1..6 at exactly one ISD from the center
    assert np.allclose(d_center[1:7], 500.0)
    # nearest-neighbour spacing across the whole grid is one ISD
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    np.fill_diagonal(dist, np.inf)
    assert np.isclose(dist.min(), 500.0)


def test_sector_ids_and_boresights():
    layout = build_hex_layout(1, 500.0, 60.0)
    # cell_id = 3 * site_id + sector, so cell 5 is sector 2 of site 1
    for cell_id, bore in enumerate(layout.boresight_deg.tolist()):
        assert bore == (60.0 + 120.0 * (cell_id % 3)) % 360.0
    rad = math.radians(layout.boresight_deg[5])
    x, y = layout.site_xy[1] + 100.0 * np.array([math.cos(rad), math.sin(rad)])
    assert [c for c in range(21) if sector_contains(layout, c, x, y)] == [5]


def test_sector_contains_splits_the_site_hexagon():
    layout = build_hex_layout(0, 500.0, 60.0)
    # a point 100 m along each boresight belongs to exactly that sector
    for cell_id, bore in enumerate(layout.boresight_deg.tolist()):
        rad = math.radians(bore)
        x, y = 100.0 * math.cos(rad), 100.0 * math.sin(rad)
        owners = [c for c in range(3) if sector_contains(layout, c, x, y)]
        assert owners == [cell_id]
    # far outside the hexagon belongs to nobody
    assert not any(sector_contains(layout, c, 5000.0, 0.0) for c in range(3))


def test_drop_ues_population_and_geometry():
    cfg = preset("small")
    layout = build_hex_layout(cfg.n_site_rings, cfg.inter_site_distance,
                              cfg.azimuth_offset_deg)
    xy, drop_cell = drop_ues(layout, cfg, np.random.default_rng(3))
    n_ues = len(layout.boresight_deg) * cfg.ues_per_sector
    assert xy.shape == (n_ues, 2)
    # sector-major ids
    assert drop_cell.tolist() == [u // cfg.ues_per_sector
                                  for u in range(n_ues)]
    for (x, y), cell in zip(xy, drop_cell):
        assert sector_contains(layout, cell, x, y)
        sx, sy = layout.site_xy[cell // 3]
        assert math.hypot(x - sx, y - sy) >= cfg.min_ue_site_distance


def test_drop_ues_is_deterministic_per_rng_seed():
    cfg = preset("small").replace(ues_per_sector=4)
    layout = build_hex_layout(1, 500.0, 60.0)
    a, _ = drop_ues(layout, cfg, np.random.default_rng(11))
    b, _ = drop_ues(layout, cfg, np.random.default_rng(11))
    assert np.array_equal(a, b)


def test_drop_ues_rejects_impossible_exclusion_radius():
    # the config's own 500 m spacing allows both radii; the layout's
    # 100 m spacing, whose hexagons have a 50 m inradius, allows only 50 m
    layout = build_hex_layout(0, 100.0, 60.0)
    cfg = preset("small").replace(min_ue_site_distance=50.0,
                                  ues_per_sector=1)
    drop_ues(layout, cfg, np.random.default_rng(0))
    with pytest.raises(DeploymentError, match="no room"):
        drop_ues(layout, cfg.replace(min_ue_site_distance=50.1),
                 np.random.default_rng(0))


def test_assign_serving_cell_strongest_wins_ties_to_lowest_id():
    # wideband gains (cell, ue): ue 0 hears cell 1 best, ue 1 a three-way tie
    gain_db = np.array([[-70.0, -60.0], [-60.0, -60.0], [-80.0, -60.0]])
    links = _build_linkset(preset("small"), gain_db,
                           np.zeros(gain_db.shape, dtype=bool))
    assert links.serving.tolist() == [1, 0]
    # each UE's links run serving cell first, then by power and cell id
    assert links.cell.tolist() == [1, 0, 2, 0, 1, 2]
    assert links.ue.tolist() == [0, 0, 0, 1, 1, 1]
    assert np.array_equal(links.cell[::links.n_keep], links.serving)


def test_dump_layout_csv(tmp_path):
    layout = build_hex_layout(1, 500.0, 60.0)
    sites_path = tmp_path / "sites.csv"
    cells_path = tmp_path / "cells.csv"
    dump_layout_csv(layout, sites_path, cells_path)
    sites = sites_path.read_text(encoding="utf-8").splitlines()
    cells = cells_path.read_text(encoding="utf-8").splitlines()
    assert sites[0] == "site_id,x,y"
    assert cells[0] == "cell_id,site_id,boresight_deg"
    assert len(sites) == 1 + 7
    assert len(cells) == 1 + 21
