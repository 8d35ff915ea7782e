"""System-level downlink simulator for a dense mmWave small-cell network.

Quantifies how the receiver's antenna polarization (co-polarized LPOL vs
cross-polarized XPOL) and the base-station scheduler (round robin vs
proportional fair) shape per-UE throughput, spectral efficiency and Jain
fairness as UE velocity grows from 0 to 120 kmph.

Typical use::

    from mmwsim import preset, run_simulation, run_sweep, emit_csv

    record = run_simulation(preset("small"))
    table, failures = run_sweep(preset("small"),
                                velocities=[0, 60, 120],
                                polarizations=["LPOL", "XPOL"],
                                schedulers=["RR", "PF"],
                                seeds=[1, 2, 3])
    emit_csv(table, "results.csv")

or from the shell: ``simulate --preset small --sweep --out results.csv``.
"""

from ._version import __version__
from .config import (DEFAULT_SWEEP_SEEDS, DEFAULT_SWEEP_VELOCITIES,
                     POLARIZATIONS, SCHEDULERS, ScenarioConfig,
                     ScenarioError, expand_sweep, load_scenario,
                     parse_scenario, preset, save_scenario,
                     scenario_to_text)
from .deployment import (DeploymentError, SiteLayout, build_hex_layout,
                         drop_ues)
from .channel import (ChannelModelError, doppler_frequency, los_probability,
                      pathloss_uma)
from .link import (LinkAbstractionError, build_codebook, noise_power_w,
                   sinr_to_rate)
from .scheduler import (SchedulerError, schedule_pf, schedule_rr,
                        update_average_throughput)
from .kpi import (AllZeroThroughputError, KpiError, KpiRecord,
                  average_ue_throughput, jain_fairness, spectral_efficiency)
from .engine import EngineError, run_simulation
from .sweep import RESULT_COLUMNS, ResultsTable, emit_csv, run_sweep

__all__ = [
    "__version__",
    # scenario configuration
    "ScenarioConfig", "ScenarioError", "parse_scenario", "load_scenario",
    "save_scenario", "scenario_to_text", "preset", "expand_sweep",
    "POLARIZATIONS", "SCHEDULERS", "DEFAULT_SWEEP_VELOCITIES",
    "DEFAULT_SWEEP_SEEDS",
    # deployment
    "DeploymentError", "SiteLayout", "build_hex_layout", "drop_ues",
    # channel
    "ChannelModelError", "doppler_frequency", "los_probability",
    "pathloss_uma",
    # link abstraction
    "LinkAbstractionError", "noise_power_w", "build_codebook",
    "sinr_to_rate",
    # scheduling
    "SchedulerError", "schedule_rr", "schedule_pf",
    "update_average_throughput",
    # KPIs
    "KpiError", "AllZeroThroughputError", "average_ue_throughput",
    "spectral_efficiency", "jain_fairness", "KpiRecord",
    # engine
    "EngineError", "run_simulation", "run_sweep", "ResultsTable",
    "emit_csv", "RESULT_COLUMNS",
]
