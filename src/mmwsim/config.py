"""Scenario configuration: defaults, validation, file I/O and sweep expansion.

A scenario file is flat ``key = value`` text, one pair per line, with ``#``
comments. Keys match the :class:`ScenarioConfig` field names exactly; unknown
keys are a hard error so typos cannot silently fall back to defaults.

Three fields are derived from others unless given a value: ``n_rb`` from
the bandwidth, ``pf_initial_throughput_bits`` from the RB rate cap and
``ue_pol_slant_deg`` from the polarization. A given value is pinned and
kept; a derived one follows its sources through ``replace``, ``--set`` and
saved files, which record it only as a comment.
"""

import dataclasses
import math
from dataclasses import dataclass


class ScenarioError(ValueError):
    """Raised for malformed scenario files or invalid parameter values."""


POLARIZATIONS = ("LPOL", "XPOL")
SCHEDULERS = ("RR", "PF")

# rx slant implied by the polarization label: aligned with / perpendicular to
# the intended plane
_POL_SLANT = {"LPOL": 0.0, "XPOL": 90.0}


@dataclass
class ScenarioConfig:
    """One simulation point. Defaults reproduce the reference scenario."""

    # Cell layout / radio
    carrier_frequency: float = 28e9      # Hz
    bandwidth: float = 10e6              # Hz
    n_site_rings: int = 2                # 2 rings -> 19 sites
    inter_site_distance: float = 500.0   # m
    bs_height: float = 25.0              # m
    ue_height: float = 1.5               # m
    ues_per_sector: int = 30
    bs_tx_power: float = 40.0            # W, per sector, shared across RBs

    # MIMO / transmission
    n_tx: int = 4
    n_rx: int = 4
    transmission_mode: str = "CLSM"
    csi_period_tti: int = 5              # precoder refeedback period; per-RB
                                         # rate reports refresh every TTI

    # Polarization
    bs_pol_slant_deg: float = 45.0       # dual-pol ports at +/- this slant
    ue_polarization: str = "LPOL"        # LPOL | XPOL
    ue_pol_slant_deg: float = None       # derived from ue_polarization if unset
    xpd_mean: float = 8.0                # dB, cross-polar discrimination

    # BS antenna
    electrical_downtilt_deg: float = 90.0   # zenith-referenced; 90 = broadside
    mechanical_downtilt_deg: float = 0.0
    mechanical_slant_deg: float = 0.0
    azimuth_offset_deg: float = 60.0         # global boresight rotation
    vertical_panels: int = 2
    horizontal_panels: int = 1
    elements_per_panel: int = 2
    max_element_gain_dbi: float = 8.0
    azimuth_3db_beamwidth_deg: float = 65.0
    elevation_3db_beamwidth_deg: float = 65.0
    front_back_ratio_db: float = 30.0
    sla_v_db: float = 30.0

    # Mobility
    ue_velocity: float = 0.0             # kmph; enters Doppler (and position
    position_update: bool = False        # ... only when this flag is on)

    # Time/frequency grid
    n_tti: int = 50
    tti_duration: float = 1e-3           # s, fixed
    rb_bandwidth: float = 180e3          # Hz
    n_rb: int = None                     # derived from bandwidth if unset

    # Scheduler
    scheduler: str = "RR"                # RR | PF
    pf_time_constant_tc: float = 20.0    # TTIs, EWMA memory
    pf_initial_throughput_bits: float = None   # derived: one RB cap-rate

    # Channel model knobs
    noise_figure: float = 9.0            # dB
    shadowing_sigma_los_db: float = 4.0
    shadowing_sigma_nlos_db: float = 6.0
    rician_k_db: float = 9.0             # LOS links
    coherence_bandwidth_rb: int = 5
    depol_coherence_time: float = 30e-6  # s, cross-polar decoherence window

    # Link abstraction
    shannon_efficiency: float = 0.6
    spectral_efficiency_cap: float = 7.4    # bit/s/Hz per layer

    # Engine
    n_strongest_interferers: int = 8     # explicit interferer links per UE
    min_ue_site_distance: float = 10.0   # m
    collect_all_sectors: bool = False    # KPIs from all cells, not just center
    seed: int = 1

    def __post_init__(self):
        # derived fields given a value here are pinned; the others are
        # (re-)derived by every validate()
        self._pinned = frozenset(
            name for name in _DERIVED if getattr(self, name) is not None)
        self.validate()

    def validate(self):
        """Derive the unpinned derived fields and reject inconsistent
        values."""
        if isinstance(self.ue_polarization, str):
            self.ue_polarization = self.ue_polarization.upper()
        if isinstance(self.scheduler, str):
            self.scheduler = self.scheduler.upper()
        if isinstance(self.transmission_mode, str):
            self.transmission_mode = self.transmission_mode.upper()

        _require(self.carrier_frequency > 0, "carrier_frequency", "must be > 0")
        _require(self.bandwidth > 0, "bandwidth", "must be > 0")
        _require(self.n_site_rings >= 0, "n_site_rings", "must be >= 0")
        _require(self.inter_site_distance > 0, "inter_site_distance",
                 "must be > 0")
        _require(self.ue_height > 0, "ue_height", "must be > 0")
        _require(self.bs_height > self.ue_height, "bs_height",
                 "must exceed ue_height")
        _require(self.ues_per_sector >= 1, "ues_per_sector", "must be >= 1")
        _require(self.bs_tx_power > 0, "bs_tx_power", "must be > 0")
        _require(self.n_tx in (1, 2, 4), "n_tx", "must be 1, 2 or 4")
        _require(self.n_rx >= 1, "n_rx", "must be >= 1")
        _require(self.transmission_mode == "CLSM", "transmission_mode",
                 "only CLSM is supported")
        _require(int(self.csi_period_tti) == self.csi_period_tti
                 and self.csi_period_tti >= 1, "csi_period_tti",
                 "must be an integer >= 1")
        self.csi_period_tti = int(self.csi_period_tti)
        _require(self.ue_polarization in POLARIZATIONS, "ue_polarization",
                 "must be LPOL or XPOL")

        expected_slant = _POL_SLANT[self.ue_polarization]
        if "ue_pol_slant_deg" not in self._pinned:
            self.ue_pol_slant_deg = expected_slant
        _require(self.ue_pol_slant_deg == expected_slant, "ue_pol_slant_deg",
                 f"must be {expected_slant:g} for {self.ue_polarization}")

        _require(self.ue_velocity >= 0, "ue_velocity", "must be >= 0")
        _require(self.n_tti >= 1, "n_tti", "must be >= 1")
        _require(self.tti_duration == 1e-3, "tti_duration",
                 "is fixed at 1e-3 s")
        _require(self.rb_bandwidth > 0, "rb_bandwidth", "must be > 0")

        if "n_rb" not in self._pinned:
            # LTE-style 90% occupancy: 10 MHz -> 50 RBs of 180 kHz
            self.n_rb = int(math.floor(0.9 * self.bandwidth / self.rb_bandwidth))
        _require(self.n_rb >= 1, "n_rb", "must be >= 1")
        _require(self.n_rb * self.rb_bandwidth <= self.bandwidth, "n_rb",
                 "RB grid must fit inside the bandwidth")

        _require(self.scheduler in SCHEDULERS, "scheduler", "must be RR or PF")
        _require(self.pf_time_constant_tc >= 1, "pf_time_constant_tc",
                 "must be >= 1")
        if "pf_initial_throughput_bits" not in self._pinned:
            self.pf_initial_throughput_bits = (
                self.tti_duration * self.rb_bandwidth
                * self.spectral_efficiency_cap)
        _require(self.pf_initial_throughput_bits > 0,
                 "pf_initial_throughput_bits", "must be > 0")

        _require(self.noise_figure >= 0, "noise_figure", "must be >= 0")
        _require(self.shadowing_sigma_los_db >= 0, "shadowing_sigma_los_db",
                 "must be >= 0")
        _require(self.shadowing_sigma_nlos_db >= 0, "shadowing_sigma_nlos_db",
                 "must be >= 0")
        _require(self.coherence_bandwidth_rb >= 1, "coherence_bandwidth_rb",
                 "must be >= 1")
        _require(self.depol_coherence_time >= 0, "depol_coherence_time",
                 "must be >= 0")
        _require(self.shannon_efficiency > 0, "shannon_efficiency",
                 "must be > 0")
        _require(self.spectral_efficiency_cap > 0, "spectral_efficiency_cap",
                 "must be > 0")
        _require(self.n_strongest_interferers >= 0, "n_strongest_interferers",
                 "must be >= 0")
        _require(self.min_ue_site_distance >= 0, "min_ue_site_distance",
                 "must be >= 0")
        _require(int(self.seed) == self.seed and self.seed >= 0, "seed",
                 "must be a non-negative integer")
        self.seed = int(self.seed)
        return self

    def replace(self, **changes):
        """Copy with fields changed.

        Derived fields that are not pinned are derived again from the new
        values. A new ``ue_polarization`` also unpins ``ue_pol_slant_deg``,
        which must match it. Passing None for a derived field unpins it.
        """
        for name in _DERIVED - self._pinned:
            changes.setdefault(name, None)
        if "ue_polarization" in changes:
            changes.setdefault("ue_pol_slant_deg", None)
        return dataclasses.replace(self, **changes)


def _require(cond, key, msg):
    if not cond:
        raise ScenarioError(f"{key}: {msg}")


_FIELDS = {f.name: f for f in dataclasses.fields(ScenarioConfig)}

# fields whose dataclass default is a derived None sentinel
_DERIVED = {"ue_pol_slant_deg", "n_rb", "pf_initial_throughput_bits"}

_BOOL_WORDS = {"true": True, "false": False, "1": True, "0": False,
               "yes": True, "no": False}


def _parse_value(key, raw):
    if key not in _FIELDS:
        raise ScenarioError(f"unknown key {key!r}")
    ftype = _FIELDS[key].type
    raw = raw.strip()
    try:
        if ftype is bool or ftype == "bool":
            word = raw.lower()
            if word not in _BOOL_WORDS:
                raise ValueError(f"not a boolean: {raw!r}")
            return _BOOL_WORDS[word]
        if ftype is int or ftype == "int":
            return int(raw)
        if ftype is float or ftype == "float":
            return float(raw)   # accepts inf for xpd_mean
        return raw
    except ValueError as exc:
        raise ScenarioError(f"{key}: {exc}") from None


def parse_scenario(text, source="<string>"):
    """Parse flat ``key = value`` scenario text into a ScenarioConfig."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ScenarioError(
                f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in _FIELDS:
            raise ScenarioError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ScenarioError(f"{source}:{lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, raw)
    return ScenarioConfig(**values)


def load_scenario(path):
    """Load and validate a scenario file. Missing keys take defaults."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read(), source=str(path))


def scenario_to_text(cfg):
    """Serialize every field so a round-trip reproduces the config exactly.

    A derived field that is not pinned is written as a comment, so that
    loading the text derives it again from the values it was saved with,
    or from edited ones.
    """
    lines = ["# mmwsim scenario"]
    for name in _FIELDS:
        value = getattr(cfg, name)
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        if name in _DERIVED - cfg._pinned:
            lines.append(f"# {name} = {text}  (derived)")
        else:
            lines.append(f"{name} = {text}")
    return "\n".join(lines) + "\n"


def save_scenario(cfg, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(scenario_to_text(cfg))


def preset(name):
    """Named scenario presets.

    ``paper``: full reference scale (19 sites, 30 UEs/sector).
    ``small``: desk-scale variant (7 sites, 5 UEs/sector) used by the
    acceptance checks; identical physics, minutes-not-hours runtime.
    """
    if name == "paper":
        return ScenarioConfig()
    if name == "small":
        return ScenarioConfig(n_site_rings=1, ues_per_sector=5, n_tti=50)
    raise ScenarioError(f"preset: unknown preset {name!r}")


def expand_sweep(base, velocities=None, polarizations=None, schedulers=None,
                 seeds=None):
    """Cartesian sweep over the four study axes.

    Axes left as None stay at the base config's single value. Points nest
    in the caller's axis order (scheduler outermost, then polarization,
    velocity and seed); the results table sorts rows on emission, so the
    expansion order never shows in the CSV. An empty axis or one that
    repeats a value is rejected: it would yield an empty sweep or run the
    same point twice.
    """
    velocities = ([base.ue_velocity] if velocities is None
                  else [float(v) for v in velocities])
    polarizations = ([base.ue_polarization] if polarizations is None
                     else [p.upper() for p in polarizations])
    schedulers = ([base.scheduler] if schedulers is None
                  else [s.upper() for s in schedulers])
    seeds = [base.seed] if seeds is None else [int(s) for s in seeds]

    for key, values in (("ue_velocity", velocities),
                        ("ue_polarization", polarizations),
                        ("scheduler", schedulers), ("seed", seeds)):
        if not values:
            raise ScenarioError(f"{key}: sweep axis is empty")
        repeated = sorted({v for v in values if values.count(v) > 1})
        if repeated:
            raise ScenarioError(
                f"{key}: sweep axis repeats {', '.join(map(str, repeated))}")
    for v in velocities:
        if v < 0:
            raise ScenarioError("ue_velocity: sweep values must be >= 0")

    points = []
    for sched in schedulers:
        for pol in polarizations:
            for vel in velocities:
                for seed in seeds:
                    points.append(base.replace(
                        scheduler=sched, ue_polarization=pol,
                        ue_pol_slant_deg=None, ue_velocity=vel,
                        seed=seed))
    return points


DEFAULT_SWEEP_VELOCITIES = (0.0, 20.0, 40.0, 60.0, 80.0, 100.0, 120.0)
DEFAULT_SWEEP_SEEDS = (1, 2, 3, 4, 5)
