"""Differential privacy: Laplace, SVT, accounting, bounds, allocation."""

from .._lazy import lazy_exports

__all__ = [
    "MechanismEvent",
    "PrivacyAccountant",
    "event_to_user_epsilon",
    "sequential_system_epsilon",
    "stability_composed_epsilon",
    "theorem3_epsilon",
    "OperatorSpec",
    "allocate_budget",
    "expected_dummy_volume",
    "query_efficiency",
    "recommended_flush_size",
    "theorem4_deferred_bound",
    "theorem4_min_updates",
    "theorem5_dummy_bound",
    "theorem6_deferred_bound",
    "theorem6_dummy_bound",
    "theorem17_ant_error_bound",
    "theorem17_timer_error_bound",
    "laplace_cdf",
    "laplace_mechanism",
    "laplace_noise",
    "laplace_quantile",
    "laplace_sum_high_probability_bound",
    "laplace_sum_tail_bound",
    "LocalNoiseSource",
    "NumericAboveNoisyThreshold",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".accountant": (
        "MechanismEvent",
        "PrivacyAccountant",
        "event_to_user_epsilon",
        "sequential_system_epsilon",
        "stability_composed_epsilon",
        "theorem3_epsilon",
    ),
    ".allocation": (
        "OperatorSpec",
        "allocate_budget",
        "expected_dummy_volume",
        "query_efficiency",
    ),
    ".bounds": (
        "recommended_flush_size",
        "theorem4_deferred_bound",
        "theorem4_min_updates",
        "theorem5_dummy_bound",
        "theorem6_deferred_bound",
        "theorem6_dummy_bound",
        "theorem17_ant_error_bound",
        "theorem17_timer_error_bound",
    ),
    ".laplace": (
        "laplace_cdf",
        "laplace_mechanism",
        "laplace_noise",
        "laplace_quantile",
        "laplace_sum_high_probability_bound",
        "laplace_sum_tail_bound",
    ),
    ".svt": ("LocalNoiseSource", "NumericAboveNoisyThreshold"),
})
