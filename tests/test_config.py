"""Scenario configuration: defaults, validation, file I/O, sweep expansion."""

import math
import re

import pytest

from mmwsim.cli import _apply_overrides
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
    assert cfg.ue_pol_slant_deg == 0.0
    assert cfg.scheduler == "RR"
    assert cfg.ue_polarization == "LPOL"


def test_n_rb_scales_with_bandwidth():
    assert ScenarioConfig(bandwidth=20e6).n_rb == 100
    assert ScenarioConfig(bandwidth=5e6).n_rb == 25
    # explicit override wins
    assert ScenarioConfig(n_rb=13).n_rb == 13


def test_polarization_implies_rx_slant():
    assert ScenarioConfig(ue_polarization="XPOL").ue_pol_slant_deg == 90.0
    cfg = ScenarioConfig()
    assert cfg.replace(ue_polarization="XPOL").ue_pol_slant_deg == 90.0
    # inconsistent explicit slant is rejected
    with pytest.raises(ScenarioError, match="ue_pol_slant_deg"):
        ScenarioConfig(ue_polarization="XPOL", ue_pol_slant_deg=0.0)


def test_names_are_case_normalized():
    cfg = ScenarioConfig(scheduler="pf", ue_polarization="xpol",
                         transmission_mode="clsm")
    assert cfg.scheduler == "PF"
    assert cfg.ue_polarization == "XPOL"
    assert cfg.transmission_mode == "CLSM"


@pytest.mark.parametrize("changes", [
    {"n_tti": 0},
    {"tti_duration": 2e-3},
    {"n_tx": 3},
    {"scheduler": "FIFO"},
    {"ue_polarization": "CPOL"},
    {"ue_velocity": -1.0},
    {"bs_height": 1.0},
    {"bandwidth": 0.0},
    {"ues_per_sector": 0},
    {"pf_time_constant_tc": 0.5},
    {"csi_period_tti": 0},
    {"csi_period_tti": 1.5},
    {"transmission_mode": "OLSM"},
    {"seed": -1},
    {"n_rb": 100},   # grid would exceed the 10 MHz bandwidth
])
def test_invalid_values_are_rejected(changes):
    with pytest.raises(ScenarioError):
        ScenarioConfig(**changes)


def test_text_round_trip_reproduces_every_field():
    cfg = ScenarioConfig(ue_polarization="XPOL", scheduler="PF",
                         ue_velocity=83.0, seed=12, xpd_mean=float("inf"),
                         position_update=True)
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
    ("position_update = maybe\n", "position_update"),
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
    # slant follows the swept polarization
    assert [p.ue_pol_slant_deg for p in points] == [0.0, 90.0]


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
])
def test_expand_sweep_rejects_empty_and_repeated_axes(axis, values,
                                                      fragment):
    with pytest.raises(ScenarioError, match=fragment):
        expand_sweep(preset("small"), **{axis: values})


def test_replace_validates_and_casts():
    cfg = preset("small").replace(seed=4.0, csi_period_tti=2.0)
    assert cfg.seed == 4 and isinstance(cfg.seed, int)
    assert cfg.csi_period_tti == 2 and isinstance(cfg.csi_period_tti, int)
    with pytest.raises(ScenarioError):
        preset("small").replace(n_tti=-1)


def test_infinite_xpd_parses_from_text():
    cfg = parse_scenario("xpd_mean = inf\n")
    assert math.isinf(cfg.xpd_mean)


# (derived field, change to one of its sources, value derived after it)
DERIVED_CASES = [
    ("n_rb", {"bandwidth": 20e6}, 100),
    ("pf_initial_throughput_bits", {"spectral_efficiency_cap": 5.0},
     pytest.approx(1e-3 * 180e3 * 5.0)),
    ("ue_pol_slant_deg", {"ue_polarization": "XPOL"}, 90.0),
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


def test_pinned_slant_follows_a_new_polarization():
    cfg = ScenarioConfig(ue_polarization="XPOL", ue_pol_slant_deg=90.0)
    assert cfg.replace(ue_polarization="LPOL").ue_pol_slant_deg == 0.0
