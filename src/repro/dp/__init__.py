"""Differential privacy: Laplace, SVT, accounting, bounds, allocation."""

from .accountant import (
    MechanismEvent,
    PrivacyAccountant,
    event_to_user_epsilon,
    sequential_system_epsilon,
    stability_composed_epsilon,
    theorem3_epsilon,
)
from .allocation import (
    OperatorSpec,
    allocate_budget,
    expected_dummy_volume,
    query_efficiency,
)
from .bounds import (
    recommended_flush_size,
    theorem4_deferred_bound,
    theorem4_min_updates,
    theorem5_dummy_bound,
    theorem6_deferred_bound,
    theorem6_dummy_bound,
    theorem17_ant_error_bound,
    theorem17_timer_error_bound,
)
from .laplace import (
    laplace_cdf,
    laplace_mechanism,
    laplace_noise,
    laplace_quantile,
    laplace_sum_high_probability_bound,
    laplace_sum_tail_bound,
)
from .svt import LocalNoiseSource, NumericAboveNoisyThreshold

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
