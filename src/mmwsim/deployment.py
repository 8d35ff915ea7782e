"""Hexagonal site layout, tri-sector cells and UE placement.

The grid is the classic hex-ring deployment: a center site plus ``r`` rings,
ring r holding 6r sites, so 2 rings give 19 sites / 57 cells. Each site runs
three sectors with boresights at ``azimuth_offset + {0, 120, 240}`` degrees.
No wraparound: border sites simply see less interference, and KPIs are read
from the center site's sectors only. The layout is two arrays, the site
positions and the cell boresights; cell c is sector c % 3 of site c // 3.
The UE drop returns positions and drop cells as arrays indexed by UE id.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

# ring walk: unit steps between neighbouring sites, axial hex basis
_HEX_DIRS = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]

SECTORS_PER_SITE = 3


class DeploymentError(ValueError):
    """Raised for impossible placements or attachments."""


@dataclass
class SiteLayout:
    site_xy: np.ndarray         # (n_sites, 2) positions, m
    boresight_deg: np.ndarray   # (n_cells,) azimuth, counterclockwise from +x
    inter_site_distance: float


def build_hex_layout(n_rings, inter_site_distance, azimuth_offset_deg):
    """Build site positions and cell boresights for a hex grid with the
    given ring count.

    Site 0 is the center; rings are appended outward walking the six hex
    directions, so site ids are deterministic. cell_id = 3*site_id + sector.
    """
    if n_rings < 0:
        raise DeploymentError("n_rings must be >= 0")
    if inter_site_distance <= 0:
        raise DeploymentError("inter_site_distance must be > 0")

    coords = [(0, 0)]
    for ring in range(1, n_rings + 1):
        # start at the "south-west" corner of the ring and walk around
        i, j = ring * _HEX_DIRS[4][0], ring * _HEX_DIRS[4][1]
        for d in range(6):
            for _ in range(ring):
                coords.append((i, j))
                i += _HEX_DIRS[d][0]
                j += _HEX_DIRS[d][1]

    # axial basis vectors isd*(1,0) and isd*(cos60, sin60)
    isd = float(inter_site_distance)
    i, j = np.array(coords, dtype=float).T
    site_xy = np.column_stack((isd * (i + 0.5 * j),
                               isd * (math.sqrt(3) / 2.0) * j))
    sector = np.arange(SECTORS_PER_SITE * len(coords)) % SECTORS_PER_SITE
    boresight = (azimuth_offset_deg + 120.0 * sector) % 360.0
    return SiteLayout(site_xy, boresight, isd)


def _in_sector(dx, dy, boresight_deg, isd):
    """Point (relative to site) inside the site's hexagonal cell and the
    120 deg wedge around ``boresight_deg``.

    Neighbouring sites sit at multiples of 60 deg, so the cell is the hexagon
    with edge normals along those directions and inradius isd/2.
    """
    half = isd / 2.0 + 1e-9
    for ang in (0.0, math.pi / 3.0, 2.0 * math.pi / 3.0):
        if abs(dx * math.cos(ang) + dy * math.sin(ang)) > half:
            return False
    az = math.degrees(math.atan2(dy, dx))
    return -60.0 <= (az - boresight_deg + 180.0) % 360.0 - 180.0 < 60.0


def sector_contains(layout, cell_id, x, y):
    """Sector region test: site hexagon intersected with the 120 deg wedge."""
    sx, sy = layout.site_xy[cell_id // SECTORS_PER_SITE].tolist()
    return _in_sector(x - sx, y - sy, layout.boresight_deg[cell_id].item(),
                      layout.inter_site_distance)


def drop_ues(layout, cfg, rng):
    """Place ``cfg.ues_per_sector`` UEs uniformly in every sector region.

    Points are rejection-sampled from the hexagon's circumscribed disk until
    they land in the wedge, at least ``min_ue_site_distance`` from the site.
    That distance may not exceed the hexagon's inradius, isd/2, past which
    only its corners, whose area shrinks to 0, are left to land in. UE ids run
    sector-major: cell 0 gets 0..k-1, etc. Returns ``(xy, drop_cell)``,
    indexed by UE id: the (n_ues, 2) positions and the sector whose region
    contained each drop point.
    """
    min_d = cfg.min_ue_site_distance
    isd = layout.inter_site_distance
    if min_d > isd / 2.0:
        raise DeploymentError(
            "min_ue_site_distance leaves no room inside the sector")
    radius = isd / math.sqrt(3.0)

    drop_cell = np.repeat(np.arange(len(layout.boresight_deg)),
                          cfg.ues_per_sector)
    # the loop runs on Python floats, which numpy scalars would slow
    site_xy = layout.site_xy.tolist()
    boresight = layout.boresight_deg.tolist()
    xy = np.empty((len(drop_cell), 2))
    for ue_id, cell_id in enumerate(drop_cell.tolist()):
        sx, sy = site_xy[cell_id // SECTORS_PER_SITE]
        while True:
            r = radius * math.sqrt(rng.uniform(0.0, 1.0))
            phi = rng.uniform(0.0, 2.0 * math.pi)
            x = sx + r * math.cos(phi)
            y = sy + r * math.sin(phi)
            if r >= min_d and _in_sector(x - sx, y - sy, boresight[cell_id],
                                         isd):
                break
        # a heading draw nothing uses: dropping it would shift every
        # later UE's position and so change every pinned KPI
        rng.uniform(0.0, 360.0)
        xy[ue_id] = x, y
    return xy, drop_cell


def dump_layout_csv(layout, sites_path, cells_path):
    """Write the layout's site and sector tables for plotting/inspection."""
    with open(sites_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["site_id", "x", "y"])
        for site_id, (x, y) in enumerate(layout.site_xy.tolist()):
            writer.writerow([site_id, f"{x:.6g}", f"{y:.6g}"])
    with open(cells_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cell_id", "site_id", "boresight_deg"])
        for cell_id, bore in enumerate(layout.boresight_deg.tolist()):
            writer.writerow(
                [cell_id, cell_id // SECTORS_PER_SITE, f"{bore:.6g}"])
