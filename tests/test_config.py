"""Scenario configuration: defaults, validation, file I/O, sweep expansion."""

import dataclasses
import math
import re
from pathlib import Path

import pytest

import mmwsim
from mmwsim.cli import _apply_overrides
from mmwsim.config import POL_SLANT_DEG
from mmwsim import (DEFAULT_SWEEP_SEEDS, DEFAULT_SWEEP_VELOCITIES,
                    ScenarioConfig, ScenarioError, expand_sweep,
                    load_scenario, parse_scenario, preset, save_scenario,
                    scenario_to_text)


def test_defaults_are_valid_and_derive_dependent_fields():
    cfg = ScenarioConfig()
    # 90% occupancy of 10 MHz in 180 kHz RBs
    assert cfg.n_rb == 50
    # one RB at the spectral-efficiency cap: 1e-3 * 180e3 * 7.4
    assert cfg.pf_initial_throughput_bits == pytest.approx(1332.0)
    assert cfg.scheduler == "RR"
    assert cfg.ue_polarization == "LPOL"


def test_n_rb_scales_with_bandwidth():
    assert ScenarioConfig(bandwidth=20e6).n_rb == 100
    assert ScenarioConfig(bandwidth=5e6).n_rb == 25
    # explicit override wins
    assert ScenarioConfig(n_rb=13).n_rb == 13


def test_polarization_implies_rx_slant():
    assert POL_SLANT_DEG == {"LPOL": 0.0, "XPOL": 90.0}
    # the slant is no key of its own
    with pytest.raises(ScenarioError, match="unknown key 'ue_pol_slant_deg'"):
        parse_scenario("ue_polarization = XPOL\nue_pol_slant_deg = 90\n")


def test_names_are_case_normalized():
    cfg = ScenarioConfig(scheduler="pf", ue_polarization="xpol")
    assert cfg.scheduler == "PF"
    assert cfg.ue_polarization == "XPOL"


@pytest.mark.parametrize("changes", [
    {"n_tti": 0},
    {"azimuth_3db_beamwidth_deg": 0.0},
    {"n_tx": 3},
    {"scheduler": "FIFO"},
    {"ue_polarization": "CPOL"},
    {"ue_velocity": -1.0},
    {"bs_height": 1.0},
    {"bandwidth": 0.0},
    {"ues_per_sector": 0},
    {"pf_time_constant_tc": 0.5},
    {"pf_time_constant_tc": 1.0},   # memoryless: unserved UEs average 0
    {"csi_period_tti": 0},
    {"csi_period_tti": 1.5},
    {"elevation_3db_beamwidth_deg": -5.0},
    {"seed": -1},
    {"n_rb": 100},   # grid would exceed the 10 MHz bandwidth
    {"n_tti": True},   # a bool is no integer
    {"xpd_mean": True},   # nor a number of dB
    {"ue_velocity": True},
    {"bandwidth": "1e7"},   # a string is no number
    {"collect_all_sectors": "no"},   # a truthy string
    {"collect_all_sectors": 1},
])
def test_invalid_values_are_rejected(changes):
    with pytest.raises(ScenarioError):
        ScenarioConfig(**changes)
    with pytest.raises(ScenarioError):
        preset("small").replace(**changes)


def test_text_round_trip_reproduces_every_field():
    cfg = ScenarioConfig(ue_polarization="XPOL", scheduler="PF",
                         ue_velocity=83.0, seed=12, xpd_mean=float("inf"),
                         collect_all_sectors=True)
    again = parse_scenario(scenario_to_text(cfg))
    assert again == cfg


def test_file_round_trip(tmp_path):
    path = tmp_path / "scenario.cfg"
    cfg = preset("small").replace(scheduler="PF", ue_velocity=40.0)
    save_scenario(cfg, path)
    assert load_scenario(path) == cfg


def test_parser_accepts_comments_and_blank_lines():
    cfg = parse_scenario(
        "# header\n"
        "\n"
        "scheduler = PF   # trailing comment\n"
        "ue_velocity = 60\n")
    assert cfg.scheduler == "PF"
    assert cfg.ue_velocity == 60.0


@pytest.mark.parametrize("text,fragment", [
    ("no_such_key = 1\n", "unknown key"),
    ("seed = 1\nseed = 2\n", "duplicate key"),
    ("scheduler\n", "expected 'key = value'"),
    ("n_tti = lots\n", "n_tti"),
    ("collect_all_sectors = maybe\n", "collect_all_sectors"),
])
def test_parser_reports_line_and_reason(text, fragment):
    with pytest.raises(ScenarioError, match=fragment) as err:
        parse_scenario(text, source="bad.cfg")
    assert "bad.cfg:1" in str(err.value) or "bad.cfg:2" in str(err.value) \
        or fragment in str(err.value)


def test_presets():
    paper = preset("paper")
    small = preset("small")
    assert paper.n_site_rings == 2 and paper.ues_per_sector == 30
    assert small.n_site_rings == 1 and small.ues_per_sector == 5
    # identical physics knobs
    assert small.carrier_frequency == paper.carrier_frequency
    assert small.xpd_mean == paper.xpd_mean
    with pytest.raises(ScenarioError, match="unknown preset"):
        preset("tiny")


def test_expand_sweep_full_grid_count_and_order():
    points = expand_sweep(preset("small"),
                          velocities=DEFAULT_SWEEP_VELOCITIES,
                          polarizations=("LPOL", "XPOL"),
                          schedulers=("RR", "PF"),
                          seeds=DEFAULT_SWEEP_SEEDS)
    assert len(points) == 7 * 2 * 2 * 5 == 140
    keys = [(p.scheduler, p.ue_polarization, p.ue_velocity, p.seed)
            for p in points]
    # nests in the caller's axis order, scheduler outermost
    expected = [(s, p, v, seed)
                for s in ("RR", "PF")
                for p in ("LPOL", "XPOL")
                for v in DEFAULT_SWEEP_VELOCITIES
                for seed in DEFAULT_SWEEP_SEEDS]
    assert keys == expected
    assert len(set(keys)) == 140


def test_expand_sweep_axes_default_to_base_values():
    base = preset("small").replace(scheduler="PF", ue_velocity=60.0, seed=9)
    points = expand_sweep(base, polarizations=("lpol", "xpol"))
    assert len(points) == 2
    for p in points:
        assert p.scheduler == "PF"
        assert p.ue_velocity == 60.0
        assert p.seed == 9
    assert [p.ue_polarization for p in points] == ["LPOL", "XPOL"]


def test_expand_sweep_rejects_negative_velocity():
    with pytest.raises(ScenarioError, match="must be >= 0"):
        expand_sweep(preset("small"), velocities=[0.0, -5.0])


@pytest.mark.parametrize("axis,values,fragment", [
    ("velocities", [], "ue_velocity: sweep axis is empty"),
    ("polarizations", [], "ue_polarization: sweep axis is empty"),
    ("schedulers", [], "scheduler: sweep axis is empty"),
    ("seeds", [], "seed: sweep axis is empty"),
    ("velocities", [0, 60.0, 0.0], "ue_velocity: sweep axis repeats 0.0"),
    ("polarizations", ["lpol", "XPOL", "LPOL"],
     "ue_polarization: sweep axis repeats LPOL"),
    ("schedulers", ["rr", "RR"], "scheduler: sweep axis repeats RR"),
    ("seeds", [1, 2, 2], "seed: sweep axis repeats 2"),
    # the config rejects what a cast would silently truncate
    ("seeds", [1.5], "seed: must be an integer"),
    ("seeds", [True], "seed: must be an integer"),
    ("velocities", [True], "ue_velocity: must be a number"),
])
def test_expand_sweep_rejects_empty_and_repeated_axes(axis, values,
                                                      fragment):
    with pytest.raises(ScenarioError, match=fragment):
        expand_sweep(preset("small"), **{axis: values})


def test_replace_validates_and_casts():
    cfg = preset("small").replace(seed=4.0, csi_period_tti=2.0,
                                  ue_velocity=120)
    assert cfg.ue_velocity == 120.0 and type(cfg.ue_velocity) is float
    assert cfg.seed == 4 and isinstance(cfg.seed, int)
    assert cfg.csi_period_tti == 2 and isinstance(cfg.csi_period_tti, int)
    with pytest.raises(ScenarioError):
        preset("small").replace(n_tti=-1)


def test_ue_site_distance_starts_at_the_pathloss_validity_floor():
    # pathloss_uma rejects d2d < 10 m, so a smaller floor would let the
    # drop decide, seed by seed, whether a run fails
    with pytest.raises(ScenarioError, match="min_ue_site_distance.*10 m"):
        preset("small").replace(min_ue_site_distance=5.0)
    assert preset("small").replace(
        min_ue_site_distance=10.0).min_ue_site_distance == 10.0


def test_ue_site_distance_stops_at_the_site_hexagons_inradius():
    # past isd/2 only the hexagon's corners are left, and the drop's
    # rejection sampling would run almost without end
    assert preset("small").replace(
        min_ue_site_distance=250.0).min_ue_site_distance == 250.0
    with pytest.raises(ScenarioError, match="^min_ue_site_distance: must be "
                       "<= inter_site_distance / 2"):
        preset("small").replace(min_ue_site_distance=250.1)


@pytest.mark.parametrize("names,bad,rule", [
    (("carrier_frequency", "bandwidth", "inter_site_distance", "bs_tx_power",
      "rb_bandwidth", "azimuth_3db_beamwidth_deg",
      "elevation_3db_beamwidth_deg", "shannon_efficiency",
      "spectral_efficiency_cap"), 0, "must be > 0"),
    (("n_site_rings", "ue_velocity", "noise_figure", "shadowing_sigma_los_db",
      "shadowing_sigma_nlos_db", "depol_coherence_time",
      "n_strongest_interferers", "seed", "front_back_ratio_db", "sla_v_db"),
     -1, "must be >= 0"),
    (("ues_per_sector", "n_rx", "csi_period_tti", "n_tti",
      "coherence_bandwidth_rb", "vertical_panels", "elements_per_panel"), 0,
     "must be >= 1"),
])
def test_lower_bounds_name_the_field(names, bad, rule):
    for name in names:
        with pytest.raises(ScenarioError, match=f"^{name}: {rule}$"):
            ScenarioConfig(**{name: bad})


def test_model_caps_reject_values_that_would_be_silently_wrong():
    # an efficiency above 1 rated links above the Shannon bound, and a
    # negative front-to-back ratio or side-lobe level turned the pattern's
    # attenuation caps into gains
    for bad in (1.0 + 1e-9, 1.5):
        with pytest.raises(ScenarioError,
                           match="^shannon_efficiency: must be <= 1"):
            preset("small").replace(shannon_efficiency=bad)
    for name in ("front_back_ratio_db", "sla_v_db"):
        with pytest.raises(ScenarioError, match=f"^{name}: must be >= 0$"):
            _apply_overrides(preset("small"), [f"{name}=-0.5"])
    cfg = preset("small").replace(shannon_efficiency=1.0,
                                  front_back_ratio_db=0.0, sla_v_db=0.0)
    assert (cfg.shannon_efficiency, cfg.front_back_ratio_db,
            cfg.sla_v_db) == (1.0, 0.0, 0.0)


def test_antenna_counts_and_ue_height_stay_in_the_models_range():
    # vertical_panels = 0 used to run every TTI and then fail in the KPIs,
    # elements_per_panel = -1 with a math domain error
    for name, bad in (("vertical_panels", 0), ("elements_per_panel", -1)):
        with pytest.raises(ScenarioError, match=f"{name}: must be >= 1"):
            _apply_overrides(preset("small"), [f"{name}={bad}"])
    # below 1.5 m a UE height ran silently, with a LOS breakpoint distance
    # of 0 or less at 1 m and below; above 13 m the UMa breakpoint's
    # environment height and the LOS probability take height terms that
    # the models leave out
    for bad in (0.5, 1.0, 1.4, 13.5, 22.5):
        with pytest.raises(ScenarioError, match="ue_height: must lie in"):
            preset("small").replace(ue_height=bad)
    for good in (1.5, 13.0):
        assert preset("small").replace(ue_height=good).ue_height == good
    assert ScenarioConfig(vertical_panels=1, elements_per_panel=1)


INT_FIELDS = [f.name for f in dataclasses.fields(ScenarioConfig)
              if f.type is int]


@pytest.mark.parametrize("name", INT_FIELDS)
def test_int_fields_take_only_integral_values(name):
    value = getattr(preset("small"), name)
    for cfg in (ScenarioConfig(**{name: float(value)}),
                preset("small").replace(**{name: float(value)})):
        assert getattr(cfg, name) == value
        assert type(getattr(cfg, name)) is int
    for bad in (value + 0.5, "3", True, False):
        with pytest.raises(ScenarioError, match=f"{name}: must be an integer"):
            ScenarioConfig(**{name: bad})
        with pytest.raises(ScenarioError, match=f"{name}: must be an integer"):
            preset("small").replace(**{name: bad})


def test_infinite_xpd_parses_from_text():
    cfg = parse_scenario("xpd_mean = inf\n")
    assert math.isinf(cfg.xpd_mean)


FLOAT_FIELDS = [f.name for f in dataclasses.fields(ScenarioConfig)
                if f.type is float]


@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_non_finite_floats_are_rejected(name):
    for value in (math.nan, math.inf, -math.inf):
        if name == "xpd_mean" and value == math.inf:
            continue    # no leakage
        with pytest.raises(ScenarioError, match=f"{name}: must be finite"):
            ScenarioConfig(**{name: value})
        with pytest.raises(ScenarioError, match=f"{name}: must be finite"):
            preset("small").replace(**{name: value})
        with pytest.raises(ScenarioError, match=f"{name}: must be finite"):
            _apply_overrides(preset("small"), [f"{name}={value}"])
    for value in (True, False, "1e7"):
        with pytest.raises(ScenarioError, match=f"{name}: must be a number"):
            ScenarioConfig(**{name: value})
        with pytest.raises(ScenarioError, match=f"{name}: must be a number"):
            preset("small").replace(**{name: value})


def test_every_config_key_is_read_outside_config():
    # A key no other module reads changes nothing. Copying a key into a
    # field of the same name elsewhere is no read: that field must be read.
    text = "\n".join(path.read_text(encoding="utf-8")
                     for path in Path(mmwsim.__file__).parent.glob("*.py")
                     if path.name != "config.py")
    unread = []
    for name in (f.name for f in dataclasses.fields(ScenarioConfig)):
        rest = re.sub(rf"\b{name}=cfg\.{name}\b", "", text)
        if not re.search(rf"\.{name}\b", rest):
            unread.append(name)
    assert unread == []


# (derived value, change to one of its sources, value derived after it)
DERIVED_CASES = [
    ("n_rb", {"bandwidth": 20e6}, 100),
    ("pf_initial_throughput_bits", {"spectral_efficiency_cap": 5.0},
     pytest.approx(1e-3 * 180e3 * 5.0)),
]


@pytest.mark.parametrize("field,change,expected", DERIVED_CASES)
def test_replace_rederives_derived_fields(field, change, expected):
    assert getattr(preset("small").replace(**change), field) == expected


@pytest.mark.parametrize("field,change,expected", DERIVED_CASES)
def test_set_override_rederives_derived_fields(field, change, expected):
    items = [f"{key}={value}" for key, value in change.items()]
    assert getattr(_apply_overrides(preset("small"), items), field) \
        == expected


@pytest.mark.parametrize("field,change,expected", DERIVED_CASES)
def test_saved_file_does_not_freeze_derived_fields(tmp_path, field, change,
                                                   expected):
    path = tmp_path / "scenario.cfg"
    save_scenario(preset("small"), path)
    loaded = load_scenario(path)
    assert loaded == preset("small")
    assert getattr(loaded.replace(**change), field) == expected

    # editing a source key in the file re-derives the field on load
    text = path.read_text(encoding="utf-8")
    for key, value in change.items():
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text,
                      flags=re.MULTILINE)
    assert getattr(parse_scenario(text), field) == expected


@pytest.mark.parametrize("field,value,change", [
    ("n_rb", 13, {"bandwidth": 20e6}),
    ("pf_initial_throughput_bits", 500.0, {"spectral_efficiency_cap": 5.0}),
])
def test_given_derived_values_stay_pinned(tmp_path, field, value, change):
    cfg = preset("small").replace(**{field: value})
    assert getattr(cfg.replace(**change), field) == value
    path = tmp_path / "scenario.cfg"
    save_scenario(cfg, path)
    assert getattr(load_scenario(path).replace(**change), field) == value
    # None unpins
    assert getattr(cfg.replace(**change, **{field: None}), field) \
        == getattr(preset("small").replace(**change), field)

