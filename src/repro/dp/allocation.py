"""Operator-level privacy budget allocation (Section 8 / Appendix D.2).

Each DP view of a database is an operator with its own IncShrink
instance and thus its own slice ε_i of the total privacy budget
(:meth:`repro.server.database.IncShrinkDatabase.finalize`).  A smaller
ε_i means more dummy rows in operator i's output, reducing its
*efficiency*:

* Filter:  ``E = 1 - Y₁(ε₁)/n₁``                      (Definition 6)
* Join:    ``E = 1 - (Y₁(ε₁)+Y₂(ε₂))/(n₁+n₂)``        (Definition 7)
* Query:   ``E_Q = Σ (|Oᵢ|/|O_total|)·Eᵢ``            (Definition 8)

where ``Y(ε)`` estimates the dummy volume an operator's output carries
under budget ε.  The optimisation problem (Eq. 15) maximises E_Q subject
to ``Σ ε_i ≤ ε``.  We solve it by exhaustive search over a simplex grid,
which is exact enough for the handful of operators a query plan has and
keeps the solver dependency-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import isfinite, sqrt
from typing import Callable, Sequence

from ..common.errors import ConfigurationError

#: Estimator of dummy output volume as a function of the operator's ε.
DummyVolume = Callable[[float], float]


def expected_dummy_volume(b: float, updates: int) -> DummyVolume:
    """Default Y(ε) model: Laplace overshoot accumulated over updates.

    Each update overshoots by |Lap(b/ε)| in expectation b/ε dummy rows;
    over k updates the standing dummy volume concentrates around
    ``(b/ε)·sqrt(k)`` (cf. Theorem 5's noise term).
    """
    if b <= 0 or updates < 1:
        raise ConfigurationError("b must be positive and updates >= 1")
    return lambda eps: (b / eps) * sqrt(updates)


@dataclass(frozen=True)
class OperatorSpec:
    """One operator of a query plan, for allocation purposes.

    ``input_sizes`` are the real input cardinalities n₁ (filter) or
    n₁, n₂ (join); ``dummy_models`` provides Y_i(ε) per input that is
    produced by an upstream DP operator (None for raw/public inputs,
    which carry no ε-dependent dummies).
    """

    name: str
    kind: str  # "filter" | "join"
    input_sizes: tuple[int, ...]
    dummy_models: tuple[DummyVolume | None, ...]
    output_size: int

    def efficiency(self, eps: float) -> float:
        total_n = sum(self.input_sizes)
        if total_n == 0:
            return 1.0
        dummies = sum(m(eps) for m in self.dummy_models if m is not None)
        return max(0.0, 1.0 - dummies / total_n)


def query_efficiency(operators: Sequence[OperatorSpec], epsilons: Sequence[float]) -> float:
    """Definition 8's weighted efficiency for a full plan."""
    if len(operators) != len(epsilons):
        raise ConfigurationError("one epsilon per operator is required")
    total_out = sum(op.output_size for op in operators)
    if total_out == 0:
        return 1.0
    return sum(
        (op.output_size / total_out) * op.efficiency(eps)
        for op, eps in zip(operators, epsilons)
    )


def allocate_budget(
    operators: Sequence[OperatorSpec],
    total_epsilon: float,
    grid_steps: int = 20,
) -> tuple[tuple[float, ...], float]:
    """Maximise E_Q over the ε-simplex by grid search (Eq. 15).

    Returns ``(allocation, efficiency)``.  The grid enumerates all
    compositions of ``grid_steps`` ε-quanta over the operators, so the
    result is within one quantum of the optimum.
    """
    if total_epsilon <= 0:
        raise ConfigurationError(f"total epsilon must be positive, got {total_epsilon}")
    n_ops = len(operators)
    if n_ops == 0:
        raise ConfigurationError("plan must contain at least one operator")
    if n_ops == 1:
        return (total_epsilon,), query_efficiency(operators, (total_epsilon,))

    quantum = total_epsilon / grid_steps
    best_alloc: tuple[float, ...] | None = None
    best_eff = -1.0
    # Enumerate interior compositions: every operator gets >= 1 quantum.
    for split in product(range(1, grid_steps), repeat=n_ops - 1):
        remaining = grid_steps - sum(split)
        if remaining < 1:
            continue
        counts = (*split, remaining)
        alloc = tuple(c * quantum for c in counts)
        eff = query_efficiency(operators, alloc)
        if eff > best_eff:
            best_eff = eff
            best_alloc = alloc
    assert best_alloc is not None  # grid always contains the uniform split
    return best_alloc, best_eff


def check_query_epsilon(epsilon: float) -> None:
    """Refuse a query ε that is not a finite positive number.

    NaN compares false with everything, so a NaN ε would pass a tenant's
    ``spent + ε > cap`` gate and leave the ledger NaN — uncapped for good.
    """
    if not (isfinite(epsilon) and epsilon > 0):
        raise ConfigurationError(
            f"query epsilon must be finite and positive, got {epsilon}"
        )


def split_query_epsilon(
    sensitivities: Sequence[float], total_epsilon: float
) -> tuple[float, ...]:
    """Split one query's ε across its aggregates' Laplace releases.

    A multi-aggregate query released with noise runs one Laplace
    mechanism per aggregate over the *same* scanned data, so the
    aggregates compose sequentially: ``Σ ε_i = ε``.  Splitting to
    minimise the total noise variance ``Σ 2·(s_i/ε_i)²`` gives the
    classic closed form ``ε_i ∝ s_i^{2/3}`` — higher-sensitivity
    aggregates (SUMs over large value bounds) attract more of the budget
    than COUNTs, exactly as Eq. 15 skews the view split toward
    higher-``b`` operators.

    Used by the database's noisy-query path with the per-aggregate
    sensitivities carried on :class:`repro.query.ast.AggregateSpec`.
    """
    check_query_epsilon(total_epsilon)
    if not sensitivities:
        raise ConfigurationError("a query releases at least one aggregate")
    if any(s <= 0 for s in sensitivities):
        raise ConfigurationError(
            f"sensitivities must be positive, got {tuple(sensitivities)}"
        )
    weights = [s ** (2.0 / 3.0) for s in sensitivities]
    total_weight = sum(weights)
    return tuple(total_epsilon * w / total_weight for w in weights)


def view_operator_spec(
    name: str,
    budget: int,
    expected_updates: int,
    input_size: int,
    output_size: int | None = None,
) -> OperatorSpec:
    """An :class:`OperatorSpec` for one materialized join view.

    Used by the multi-view database to cast each registered DP view as
    one join operator of a composite plan so :func:`allocate_budget` can
    split the database's total ε across views (Eq. 15): views with a
    larger contribution bound ``b`` inject more Laplace-overshoot dummies
    per unit ε and therefore attract a larger slice.
    """
    return OperatorSpec(
        name=name,
        kind="join",
        input_sizes=(input_size, input_size),
        dummy_models=(expected_dummy_volume(budget, expected_updates), None),
        output_size=input_size if output_size is None else output_size,
    )
