"""Trace pins: every trace file of a one-ring run, and the layout tables.

``tests/test_golden.py`` pins ``allocation.csv`` and ``ues.csv`` of
one-site runs only. These hashes cover all five trace files of a one-ring
proportional-fair run at 0 and 120 kmph, so that neighbouring sites,
serving-cell choice across sites and the channel trace are pinned too, and
the ``dump_layout_csv`` tables of a 2-ring grid and of a 3-ring grid whose
negative azimuth offset exercises the boresight's wrap into [0, 360).
They were pinned before the site layout moved from per-site and
per-sector objects to arrays.
"""

import hashlib

import pytest

from mmwsim import build_hex_layout, preset, run_simulation
from mmwsim.deployment import dump_layout_csv

TRACE_FILES = ("sites.csv", "cells.csv", "ues.csv", "allocation.csv",
               "channel.csv")

_SITES_1_RING = \
    "e57f0345521e8dd39011e3cd35be8f276566be297c5a710c63c7357770fc248c"
_CELLS_1_RING = \
    "4f7fc4010093f98ea9ebd2dd37c0eb348c621f04d5e8da0770dc008b8eb4b7f1"

# kmph -> sha256 of each of TRACE_FILES, in order
RUN_TRACES = {
    0.0: (_SITES_1_RING, _CELLS_1_RING,
          "4833236a67150335d71dd8e7d6390b5b82807b00919abf0d19142392fe579c10",
          "2ba13b6eab29ae24eb3e06517cb4b9fdbc3e54d16143ecc7a1c620a3975f9871",
          "d110823ba64f69e0e3c59ec31787694f18b11615b33aace7baf4fa7eb83d9615"),
    120.0: (_SITES_1_RING, _CELLS_1_RING,
            "a9034ff76957990aa211231644d5e665d06470ea9afec82d89ac6bc6bf38395f",
            "e436100c7ad29274d7f6a78734f34f303b755f26e1e5e665f9f7f67d4c57c6fc",
            "82863a69ce5ad2a3bf2300138063980c08a0a283059774f1a4f88d7a189e4392"),
}

# (rings, inter-site distance, azimuth offset, sha256 of sites, of cells)
LAYOUT_TABLES = [
    (2, 500.0, 60.0,
     "8862e29db0bb7f17e316037404851662df2c39869562b6cc4bfe228c8f152bde",
     "75dc75cbb873e9d8054245d1d9f5d2e06a029771d0ae8b289b7a54e6e7468b89"),
    (3, 317.3, -30.0,
     "74fde1b9eb339a4530b7d9eee0f4c47def67734645c6031491fa83587471d568",
     "a76ea8bfebacc107b75cde93bc2ac1acb755099f3fa1d7f0eee2fd2e397c4e34"),
]


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("kmph", sorted(RUN_TRACES))
def test_one_ring_run_traces_are_reproduced_exactly(kmph, tmp_path):
    cfg = preset("small").replace(ues_per_sector=2, n_tti=7, scheduler="PF",
                                  ue_polarization="XPOL", ue_velocity=kmph)
    run_simulation(cfg, trace_dir=tmp_path)
    digests = tuple(_sha256(tmp_path / name) for name in TRACE_FILES)
    assert digests == RUN_TRACES[kmph]


@pytest.mark.parametrize("rings,isd,offset,sites_sha,cells_sha",
                         LAYOUT_TABLES)
def test_layout_tables_are_reproduced_exactly(rings, isd, offset, sites_sha,
                                              cells_sha, tmp_path):
    sites_path = tmp_path / "sites.csv"
    cells_path = tmp_path / "cells.csv"
    dump_layout_csv(build_hex_layout(rings, isd, offset), sites_path,
                    cells_path)
    assert (_sha256(sites_path), _sha256(cells_path)) == (sites_sha,
                                                         cells_sha)
