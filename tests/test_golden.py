"""Golden KPI records: the engine must reproduce them bit for bit.

The records were pinned from the engine before its link layer was batched
and streamed over UE blocks. They hold exactly, not within a tolerance:
proportional-fair points are sensitive to the last bit of every rate (a
flipped near-tie moves whole RBs between UEs), and the benchmark reference
is tied to the same floating-point operations. Every config runs 7 TTIs, so
precoders are re-selected once after the TTI-0 bootstrap.

The trace hashes pin every grant RB by RB (``allocation.csv``) and the drop
(``ues.csv``): a changed tie-break can cancel out in the averaged KPIs, but
not in the grant map. They were pinned before the scheduler and the UE drop
moved from per-UE objects to arrays indexed by id.
"""

import hashlib
import math

import pytest

import mmwsim.engine
from mmwsim import preset, run_simulation

# (rings, scheduler, polarization, kmph, other overrides,
#  avg_ue_throughput_bps, spectral_efficiency_bps_hz, fairness_index, n_ues)
GOLDEN = [
    (0, 'RR', 'LPOL', 0.0, {},
     39368294.13393204, 23.620976480359225, 0.8559358292345898, 6),
    (0, 'RR', 'LPOL', 120.0, {},
     37551654.01023662, 22.530992406141973, 0.8519826965529657, 6),
    (0, 'RR', 'XPOL', 0.0, {},
     39754753.553057894, 23.852852131834737, 0.8479677627777588, 6),
    (0, 'RR', 'XPOL', 120.0, {},
     13651810.518215576, 8.191086310929347, 0.9404701029265072, 6),
    (0, 'PF', 'LPOL', 0.0, {},
     41229465.93013882, 24.737679558083293, 0.8458225133778187, 6),
    (0, 'PF', 'LPOL', 120.0, {},
     38392361.186667345, 23.03541671200041, 0.8358431697469848, 6),
    (0, 'PF', 'XPOL', 0.0, {},
     42036570.7804647, 25.22194246827882, 0.8245752571567192, 6),
    (0, 'PF', 'XPOL', 120.0, {},
     13772933.888434626, 8.263760333060775, 0.9225057143106097, 6),
    (1, 'RR', 'LPOL', 0.0, {},
     18559575.620885238, 14.84766049670819, 0.8033628220149313, 8),
    (1, 'RR', 'LPOL', 120.0, {},
     17725937.292479552, 14.180749833983642, 0.7849149152110477, 8),
    (1, 'RR', 'XPOL', 0.0, {},
     17847362.144835554, 14.277889715868444, 0.8003145066199939, 8),
    (1, 'RR', 'XPOL', 120.0, {},
     6381261.185452917, 5.105008948362333, 0.8231071590225074, 8),
    (1, 'PF', 'LPOL', 0.0, {},
     20855989.068144, 16.6847912545152, 0.7490585194656558, 8),
    (1, 'PF', 'LPOL', 120.0, {},
     19127801.1590886, 15.30224092727088, 0.7357984907038837, 8),
    (1, 'PF', 'XPOL', 0.0, {},
     20288505.93107704, 16.230804744861633, 0.7121017817857732, 8),
    (1, 'PF', 'XPOL', 120.0, {},
     7053999.194144187, 5.64319935531535, 0.7022174214536215, 8),
    (0, 'PF', 'XPOL', 120.0, {'xpd_mean': math.inf},
     14251517.001074003, 8.550910200644402, 0.9256415032321677, 6),
    (0, 'PF', 'XPOL', 60.0, {'ues_per_sector': 3, 'n_tx': 2, 'n_rx': 2},
     8365908.847126871, 7.529317962414185, 0.8754435581616866, 9),
    (0, 'PF', 'LPOL', 60.0, {'ues_per_sector': 3, 'n_tx': 1, 'n_rx': 1},
     10677310.347833335, 9.609579313050002, 0.6850028751755722, 9),
    (0, 'RR', 'XPOL', 120.0, {'ues_per_sector': 3, 'n_tx': 4, 'n_rx': 2},
     4936538.841849985, 4.442884957664986, 0.9561404775533674, 9),
    (1, 'PF', 'XPOL', 120.0, {'n_strongest_interferers': 3},
     7118427.177080424, 5.694741741664338, 0.7260890045263332, 8),
]


# (scheduler, polarization, kmph, sha256 of allocation.csv, of ues.csv);
# every point has 0 rings and 2 UEs per sector
GOLDEN_TRACES = [
    ('RR', 'LPOL', 0.0,
     'afb75bc3896534854fd15b6ddf172a9c5add713c287d60167d0e524652670cb7',
     '3794523d331ae9e682674499ae88ce715a1ee4e687034285892dda0019b08cc2'),
    ('RR', 'LPOL', 120.0,
     '7886e4e4a7b4f63272992a956125b5b9fd2cab8c080fb9d394d81a9e09eaa50a',
     '3f31165bbeae1c829b0edfcb9bcffd0bb5ea7fdd6d360d34223423a98cfb9280'),
    ('RR', 'XPOL', 0.0,
     '1f3bc3aac134af28d7a5e8c31b4c461e98f4942daca6e0f8b63b0fce85472fd9',
     '3794523d331ae9e682674499ae88ce715a1ee4e687034285892dda0019b08cc2'),
    ('RR', 'XPOL', 120.0,
     '2296587b9b864da1228601e45106feb6f2a02d9015daa5012d593bbcecf00b3d',
     '3f31165bbeae1c829b0edfcb9bcffd0bb5ea7fdd6d360d34223423a98cfb9280'),
    ('PF', 'LPOL', 0.0,
     '965fbb48c6a308ca0974337dcb03e3407cbb8ae84cd2e2bb392c37fc641a19d0',
     '3794523d331ae9e682674499ae88ce715a1ee4e687034285892dda0019b08cc2'),
    ('PF', 'LPOL', 120.0,
     '4835aed729be30a3a4fcb07364b915869c2481b59e25c824d609279b25aabd60',
     '3f31165bbeae1c829b0edfcb9bcffd0bb5ea7fdd6d360d34223423a98cfb9280'),
    ('PF', 'XPOL', 0.0,
     'b971b548455320954cd00a8e6e7645be76a60ae300aa59333e695ca24ad948b2',
     '3794523d331ae9e682674499ae88ce715a1ee4e687034285892dda0019b08cc2'),
    ('PF', 'XPOL', 120.0,
     'bd624e693f0651592ffd4c8b45db15e42e775e75792b6a864b2591aaf1067b3b',
     '3f31165bbeae1c829b0edfcb9bcffd0bb5ea7fdd6d360d34223423a98cfb9280'),
]


def _config(rings, scheduler, pol, kmph, extra):
    changes = dict(n_site_rings=rings, ues_per_sector=2, n_tti=7,
                   scheduler=scheduler, ue_polarization=pol,
                   ue_velocity=kmph)
    changes.update(extra)
    return preset("small").replace(**changes)


def _kpis(record):
    return (record.avg_ue_throughput_bps, record.spectral_efficiency_bps_hz,
            record.fairness_index, record.n_ues)


@pytest.mark.parametrize("rings,scheduler,pol,kmph,extra,tp,se,jain,n_ues",
                         GOLDEN)
def test_golden_records_are_reproduced_exactly(rings, scheduler, pol, kmph,
                                               extra, tp, se, jain, n_ues):
    record = run_simulation(_config(rings, scheduler, pol, kmph, extra))
    assert _kpis(record) == (tp, se, jain, n_ues)


@pytest.mark.parametrize("rings,scheduler,pol,kmph,extra,tp,se,jain,n_ues",
                         [row for row in GOLDEN if row[0] == 1])
def test_golden_records_hold_over_uneven_ue_blocks(
        rings, scheduler, pol, kmph, extra, tp, se, jain, n_ues, monkeypatch):
    # blocks of four UEs with 9 links x 50 RBs x 4x4 ports each: the 42
    # UEs end in a block of two (nine and six with 3 interferers)
    monkeypatch.setattr(mmwsim.engine, "_BLOCK_BYTES", 4 * 9 * 50 * 16 * 8)
    record = run_simulation(_config(rings, scheduler, pol, kmph, extra))
    assert _kpis(record) == (tp, se, jain, n_ues)


@pytest.mark.parametrize("scheduler,pol,kmph,alloc_sha,ues_sha",
                         GOLDEN_TRACES)
def test_golden_traces_are_reproduced_exactly(scheduler, pol, kmph, alloc_sha,
                                              ues_sha, tmp_path):
    run_simulation(_config(0, scheduler, pol, kmph, {}), trace_dir=tmp_path)
    digests = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("allocation.csv", "ues.csv")]
    assert digests == [alloc_sha, ues_sha]
