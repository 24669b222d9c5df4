"""Shared utilities: RNG stream management, validation, serialization, logging."""

from repro._lazy import lazy_exports

__all__ = [
    "NullLogger",
    "RunLogger",
    "RngFactory",
    "as_generator",
    "keyed_rng",
    "stable_key",
    "from_jsonable",
    "load_json",
    "save_json",
    "to_jsonable",
    "Timer",
    "TimerBank",
    "check_array_1d",
    "check_array_2d",
    "check_fraction",
    "check_in_unit_interval",
    "check_nonnegative_int",
    "check_positive_float",
    "check_positive_int",
    "check_probability",
    "check_same_length",
    "check_simplex_vector",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.utils.logging": ("NullLogger", "RunLogger"),
    "repro.utils.rng": (
        "RngFactory", "as_generator", "keyed_rng", "stable_key",
    ),
    "repro.utils.serialization": (
        "from_jsonable", "load_json", "save_json", "to_jsonable",
    ),
    "repro.utils.timers": ("Timer", "TimerBank"),
    "repro.utils.validation": (
        "check_array_1d", "check_array_2d", "check_fraction",
        "check_in_unit_interval", "check_nonnegative_int",
        "check_positive_float", "check_positive_int", "check_probability",
        "check_same_length", "check_simplex_vector",
    ),
})
