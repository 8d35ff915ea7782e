"""The package's public names."""

import mmwsim

PUBLIC_NAMES = [
    "__version__",
    "ScenarioConfig", "ScenarioError", "parse_scenario", "load_scenario",
    "save_scenario", "scenario_to_text", "preset", "expand_sweep",
    "POLARIZATIONS", "SCHEDULERS", "DEFAULT_SWEEP_VELOCITIES",
    "DEFAULT_SWEEP_SEEDS",
    "DeploymentError", "SiteLayout", "build_hex_layout", "drop_ues",
    "ChannelModelError", "doppler_frequency", "los_probability",
    "pathloss_uma",
    "LinkAbstractionError", "noise_power_w", "build_codebook",
    "sinr_to_rate",
    "SchedulerError", "schedule_rr", "schedule_pf",
    "update_average_throughput",
    "KpiError", "AllZeroThroughputError", "average_ue_throughput",
    "spectral_efficiency", "jain_fairness", "KpiRecord",
    "EngineError", "run_simulation", "run_sweep", "ResultsTable",
    "emit_csv", "RESULT_COLUMNS",
]


def test_public_names_are_pinned_and_resolve():
    assert mmwsim.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(mmwsim, name) is not None, name
