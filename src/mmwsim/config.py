"""Scenario configuration: defaults, validation, file I/O and sweep expansion.

A scenario file is flat ``key = value`` text, one pair per line, with ``#``
comments. Keys match the :class:`ScenarioConfig` field names exactly; unknown
keys are a hard error so typos cannot silently fall back to defaults.

Two fields are derived from others unless given a value: ``n_rb`` from
the bandwidth and ``pf_initial_throughput_bits`` from the RB rate cap. A
given value is pinned and kept; a derived one follows its sources through
``replace``, ``--set`` and saved files, which record it only as a comment.
The receiver slant is no key at all: it is read off the polarization
(``POL_SLANT_DEG``).

Every float field takes only real numbers, stored as ``float`` (``4`` is
cast to ``4.0``; ``"4"`` and ``True`` are rejected), and they must be
finite, except ``xpd_mean = inf`` (no cross-polar leakage). Every int field
takes only integral values (``4.0`` is cast to ``4``; ``2.5`` and ``True``
are rejected), and every bool field only ``True`` or ``False``.
"""

import dataclasses
import math
import numbers
from dataclasses import dataclass


class ScenarioError(ValueError):
    """Raised for malformed scenario files or invalid parameter values."""


POLARIZATIONS = ("LPOL", "XPOL")
SCHEDULERS = ("RR", "PF")

TTI_DURATION = 1e-3   # s; every rate and Doppler step assumes 1 ms TTIs

# rx slant implied by the polarization label: aligned with / perpendicular to
# the intended plane
POL_SLANT_DEG = {"LPOL": 0.0, "XPOL": 90.0}


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
    csi_period_tti: int = 5              # precoder refeedback period; per-RB
                                         # rate reports refresh every TTI

    # Polarization
    bs_pol_slant_deg: float = 45.0       # dual-pol ports at +/- this slant
    ue_polarization: str = "LPOL"        # LPOL | XPOL
    xpd_mean: float = 8.0                # dB, cross-polar discrimination

    # BS antenna
    electrical_downtilt_deg: float = 90.0   # zenith-referenced; 90 = broadside
    mechanical_downtilt_deg: float = 0.0
    mechanical_slant_deg: float = 0.0
    azimuth_offset_deg: float = 60.0         # global boresight rotation
    vertical_panels: int = 2
    elements_per_panel: int = 2
    max_element_gain_dbi: float = 8.0
    azimuth_3db_beamwidth_deg: float = 65.0
    elevation_3db_beamwidth_deg: float = 65.0
    front_back_ratio_db: float = 30.0
    sla_v_db: float = 30.0

    # Mobility
    ue_velocity: float = 0.0             # kmph; enters Doppler only, UEs
                                         # keep their drop positions

    # Time/frequency grid
    n_tti: int = 50
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
        for name in _FLOAT_FIELDS:
            if name in _DERIVED and name not in self._pinned:
                continue    # derived below
            value = getattr(self, name)
            _require(isinstance(value, numbers.Real)
                     and not isinstance(value, bool), name, "must be a number")
            value = float(value)
            # xpd_mean = inf is the documented no-leakage case
            _require(math.isfinite(value)
                     or (name == "xpd_mean" and value == math.inf),
                     name, "must be finite")
            setattr(self, name, value)
        for name in _INT_FIELDS:
            if name in _DERIVED and name not in self._pinned:
                continue    # derived below
            value = getattr(self, name)
            _require(_is_integral(value), name, "must be an integer")
            setattr(self, name, int(value))
        for name in _BOOL_FIELDS:
            _require(isinstance(getattr(self, name), bool), name,
                     "must be true or false")

        for name in ("carrier_frequency", "bandwidth", "inter_site_distance",
                     "bs_tx_power", "rb_bandwidth",
                     "azimuth_3db_beamwidth_deg",
                     "elevation_3db_beamwidth_deg", "shannon_efficiency",
                     "spectral_efficiency_cap"):
            _require(getattr(self, name) > 0, name, "must be > 0")
        for name in ("n_site_rings", "ue_velocity", "noise_figure",
                     "shadowing_sigma_los_db", "shadowing_sigma_nlos_db",
                     "depol_coherence_time", "n_strongest_interferers",
                     "seed", "front_back_ratio_db", "sla_v_db"):
            _require(getattr(self, name) >= 0, name, "must be >= 0")
        for name in ("ues_per_sector", "n_rx", "csi_period_tti", "n_tti",
                     "vertical_panels", "elements_per_panel",
                     "coherence_bandwidth_rb"):
            _require(getattr(self, name) >= 1, name, "must be >= 1")
        _require(self.shannon_efficiency <= 1, "shannon_efficiency",
                 "must be <= 1, the Shannon bound")
        # TR 38.901 UMa's h_UT <= 13 m case, which the pathloss and LOS
        # models implement; at 1 m or below the breakpoint is not positive
        _require(1.5 <= self.ue_height <= 13.0, "ue_height",
                 "must lie in TR 38.901's UMa range [1.5, 13] m")
        _require(self.bs_height > self.ue_height, "bs_height",
                 "must exceed ue_height")
        _require(self.n_tx in (1, 2, 4), "n_tx", "must be 1, 2 or 4")
        _require(self.ue_polarization in POLARIZATIONS, "ue_polarization",
                 "must be LPOL or XPOL")
        _require(self.scheduler in SCHEDULERS, "scheduler", "must be RR or PF")
        # tc = 1 has no memory: a UE granted nothing falls to an average
        # of 0, which proportional fair cannot divide by
        _require(self.pf_time_constant_tc > 1, "pf_time_constant_tc",
                 "must be > 1")
        _require(self.min_ue_site_distance >= 10, "min_ue_site_distance",
                 "must be >= 10 m, the validity floor of the UMa pathloss "
                 "model")
        # past a site hexagon's inradius only its corners are left to drop
        # UEs in, and their area, so the drop's acceptance rate, goes to 0
        _require(self.min_ue_site_distance <= self.inter_site_distance / 2,
                 "min_ue_site_distance",
                 "must be <= inter_site_distance / 2, the inradius of a "
                 "site's hexagon")

        if "n_rb" not in self._pinned:
            # LTE-style 90% occupancy: 10 MHz -> 50 RBs of 180 kHz
            self.n_rb = int(math.floor(0.9 * self.bandwidth / self.rb_bandwidth))
        _require(self.n_rb >= 1, "n_rb", "must be >= 1")
        _require(self.n_rb * self.rb_bandwidth <= self.bandwidth, "n_rb",
                 "RB grid must fit inside the bandwidth")
        if "pf_initial_throughput_bits" not in self._pinned:
            self.pf_initial_throughput_bits = (
                TTI_DURATION * self.rb_bandwidth
                * self.spectral_efficiency_cap)
        _require(self.pf_initial_throughput_bits > 0,
                 "pf_initial_throughput_bits", "must be > 0")
        return self

    def replace(self, **changes):
        """Copy with fields changed.

        Derived fields that are not pinned are derived again from the new
        values. Passing None for a derived field unpins it.
        """
        for name in _DERIVED - self._pinned:
            changes.setdefault(name, None)
        return dataclasses.replace(self, **changes)


def _require(cond, key, msg):
    if not cond:
        raise ScenarioError(f"{key}: {msg}")


def _is_integral(value):
    if isinstance(value, bool):
        return False
    try:
        return int(value) == value
    except (TypeError, ValueError, OverflowError):
        return False


_FIELDS = {f.name: f for f in dataclasses.fields(ScenarioConfig)}

_FLOAT_FIELDS = tuple(name for name, f in _FIELDS.items() if f.type is float)
_INT_FIELDS = tuple(name for name, f in _FIELDS.items() if f.type is int)
_BOOL_FIELDS = tuple(name for name, f in _FIELDS.items() if f.type is bool)

# fields whose dataclass default is a derived None sentinel
_DERIVED = {"n_rb", "pf_initial_throughput_bits"}

_BOOL_WORDS = {"true": True, "false": False, "1": True, "0": False,
               "yes": True, "no": False}


def _parse_value(key, raw):
    if key not in _FIELDS:
        raise ScenarioError(f"unknown key {key!r}")
    ftype = _FIELDS[key].type
    raw = raw.strip()
    try:
        if ftype is bool:
            word = raw.lower()
            if word not in _BOOL_WORDS:
                raise ValueError(f"not a boolean: {raw!r}")
            return _BOOL_WORDS[word]
        if ftype is int:
            return int(raw)
        if ftype is float:
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
    same point twice. The config validates every value and normalises its
    case or number type.
    """
    axes = {"ue_velocity": velocities, "ue_polarization": polarizations,
            "scheduler": schedulers, "seed": seeds}
    for key, values in axes.items():
        values = [getattr(base, key)] if values is None else list(values)
        if not values:
            raise ScenarioError(f"{key}: sweep axis is empty")
        values = [getattr(base.replace(**{key: v}), key) for v in values]
        repeated = sorted({v for v in values if values.count(v) > 1})
        if repeated:
            raise ScenarioError(
                f"{key}: sweep axis repeats {', '.join(map(str, repeated))}")
        axes[key] = values

    points = []
    for sched in axes["scheduler"]:
        for pol in axes["ue_polarization"]:
            for vel in axes["ue_velocity"]:
                for seed in axes["seed"]:
                    points.append(base.replace(
                        scheduler=sched, ue_polarization=pol,
                        ue_velocity=vel, seed=seed))
    return points


DEFAULT_SWEEP_VELOCITIES = (0.0, 20.0, 40.0, 60.0, 80.0, 100.0, 120.0)
DEFAULT_SWEEP_SEEDS = (1, 2, 3, 4, 5)
