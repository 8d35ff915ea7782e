"""Hexagonal site layout, tri-sector cells and UE placement.

The grid is the classic hex-ring deployment: a center site plus ``r`` rings,
ring r holding 6r sites, so 2 rings give 19 sites / 57 cells. Each site runs
three sectors with boresights at ``azimuth_offset + {0, 120, 240}`` degrees.
No wraparound: border sites simply see less interference, and KPIs are read
from the center site's sectors only. The UE drop returns positions and
drop cells as arrays indexed by UE id.
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
class Site:
    site_id: int
    x: float
    y: float


@dataclass
class Sector:
    cell_id: int
    site_id: int
    boresight_deg: float    # azimuth, counterclockwise from +x


@dataclass
class SiteLayout:
    sites: list
    sectors: list
    inter_site_distance: float

    def sector_site(self, cell_id):
        return self.sites[self.sectors[cell_id].site_id]


def _axial_to_xy(i, j, isd):
    # basis vectors isd*(1,0) and isd*(cos60, sin60)
    x = isd * (i + 0.5 * j)
    y = isd * (math.sqrt(3) / 2.0) * j
    return x, y


def build_hex_layout(n_rings, inter_site_distance, azimuth_offset_deg):
    """Build sites and sectors for a hex grid with the given ring count.

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

    sites = []
    for sid, (i, j) in enumerate(coords):
        x, y = _axial_to_xy(i, j, inter_site_distance)
        sites.append(Site(sid, x, y))

    sectors = []
    for site in sites:
        for k in range(SECTORS_PER_SITE):
            bore = (azimuth_offset_deg + 120.0 * k) % 360.0
            sectors.append(Sector(3 * site.site_id + k, site.site_id, bore))

    return SiteLayout(sites, sectors, float(inter_site_distance))


def _in_site_hexagon(dx, dy, isd):
    """Point (relative to site) inside the site's hexagonal cell.

    Neighbouring sites sit at multiples of 60 deg, so the cell is the hexagon
    with edge normals along those directions and inradius isd/2.
    """
    half = isd / 2.0 + 1e-9
    for ang in (0.0, math.pi / 3.0, 2.0 * math.pi / 3.0):
        if abs(dx * math.cos(ang) + dy * math.sin(ang)) > half:
            return False
    return True


def _wrap_deg(a):
    return (a + 180.0) % 360.0 - 180.0


def sector_contains(layout, cell_id, x, y):
    """Sector region test: site hexagon intersected with the 120 deg wedge."""
    sec = layout.sectors[cell_id]
    site = layout.sites[sec.site_id]
    dx, dy = x - site.x, y - site.y
    if not _in_site_hexagon(dx, dy, layout.inter_site_distance):
        return False
    az = math.degrees(math.atan2(dy, dx))
    return -60.0 <= _wrap_deg(az - sec.boresight_deg) < 60.0


def drop_ues(layout, cfg, rng):
    """Place ``cfg.ues_per_sector`` UEs uniformly in every sector region.

    Points are rejection-sampled from the hexagon's circumscribed disk until
    they land in the wedge, at least ``min_ue_site_distance`` from the site.
    UE ids run sector-major: cell 0 gets 0..k-1, etc. Returns ``(xy,
    drop_cell)``, indexed by UE id: the (n_ues, 2) positions and the sector
    whose region contained each drop point.
    """
    min_d = cfg.min_ue_site_distance
    radius = layout.inter_site_distance / math.sqrt(3.0)
    if min_d >= radius:
        raise DeploymentError(
            "min_ue_site_distance leaves no room inside the sector")

    drop_cell = np.repeat([sec.cell_id for sec in layout.sectors],
                          cfg.ues_per_sector)
    xy = np.empty((len(drop_cell), 2))
    for ue_id, cell_id in enumerate(drop_cell):
        site = layout.sector_site(cell_id)
        while True:
            r = radius * np.sqrt(rng.uniform(0.0, 1.0))
            phi = rng.uniform(0.0, 2.0 * math.pi)
            x = site.x + r * math.cos(phi)
            y = site.y + r * math.sin(phi)
            if r >= min_d and sector_contains(layout, cell_id, x, y):
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
        for s in layout.sites:
            writer.writerow([s.site_id, f"{s.x:.6g}", f"{s.y:.6g}"])
    with open(cells_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cell_id", "site_id", "boresight_deg"])
        for sec in layout.sectors:
            writer.writerow(
                [sec.cell_id, sec.site_id, f"{sec.boresight_deg:.6g}"])
