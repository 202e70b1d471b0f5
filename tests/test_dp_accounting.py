"""Tests for privacy accounting, bounds, and budget allocation."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError, PrivacyBudgetError
from repro.dp.accountant import (
    MechanismEvent,
    PrivacyAccountant,
    event_to_user_epsilon,
    segment_tenant,
    sequential_system_epsilon,
    stability_composed_epsilon,
    tenant_scoped_segment,
    theorem3_epsilon,
)
from repro.dp.allocation import (
    OperatorSpec,
    allocate_budget,
    expected_dummy_volume,
    query_efficiency,
)
from repro.dp.bounds import (
    recommended_flush_size,
    theorem4_deferred_bound,
    theorem4_min_updates,
    theorem5_dummy_bound,
    theorem6_deferred_bound,
    theorem6_dummy_bound,
    theorem17_ant_error_bound,
    theorem17_timer_error_bound,
)


class TestAccountant:
    def test_sequential_sums_everything(self):
        acc = PrivacyAccountant()
        acc.spend("a", 0.5, segment=1)
        acc.spend("b", 0.25, segment=2)
        assert acc.sequential_epsilon() == pytest.approx(0.75)

    def test_parallel_takes_worst_segment(self):
        acc = PrivacyAccountant()
        acc.spend("a", 0.5, segment="w1")
        acc.spend("b", 0.3, segment="w2")
        acc.spend("c", 0.4, segment="w2")
        assert acc.parallel_epsilon() == pytest.approx(0.7)

    def test_empty_accountant(self):
        assert PrivacyAccountant().parallel_epsilon() == 0.0

    def test_nonpositive_epsilon_rejected(self):
        with pytest.raises(PrivacyBudgetError):
            PrivacyAccountant().spend("a", 0.0, segment=1)


# -- the from-scratch forms the running totals replaced, kept as oracles ------
def recomputed_query_epsilon(acc: PrivacyAccountant):
    """One walk over ``events``, adding left to right from ``0`` — what
    ``sum()`` over the query-segment events computes (written as a loop
    because ``sum()`` compensates float additions from Python 3.12 on)."""
    total = 0
    for e in acc.events:
        if isinstance(e.segment, tuple) and e.segment[:1] == ("query",):
            total = total + e.epsilon
    return total


def recomputed_tenant_epsilons(acc: PrivacyAccountant) -> dict[str, float]:
    totals: dict[str, float] = {}
    for e in acc.events:
        tenant = segment_tenant(e.segment)
        if tenant is not None:
            totals[tenant] = totals.get(tenant, 0.0) + e.epsilon
    return totals


def assert_running_equals_recomputed(acc: PrivacyAccountant) -> None:
    """``==`` and the same type, never ``approx``: these feed a budget
    gate and a byte-compared ``/metrics`` page."""
    running, oracle = acc.query_epsilon(), recomputed_query_epsilon(acc)
    assert (running, type(running)) == (oracle, type(oracle))
    tenants = recomputed_tenant_epsilons(acc)
    assert acc.tenant_epsilons() == tenants
    assert list(acc.tenant_epsilons()) == list(tenants)
    for tenant in (*tenants, "nobody"):
        assert acc.tenant_epsilon(tenant) == tenants.get(tenant, 0.0)


#: ε values with non-terminating binary expansions beside exact ones.
EPSILONS = st.one_of(
    st.sampled_from([0.1, 0.01, 0.7, 1 / 3, 0.25, 1e-9, 2.0]),
    st.floats(min_value=1e-6, max_value=16.0, allow_nan=False),
)
#: One step of a spend sequence: a read, or a spend on one kind of segment.
SPENDS = st.lists(
    st.one_of(
        st.just(("read",)),
        st.tuples(st.just("query"), EPSILONS),
        st.tuples(st.just("tenant"), EPSILONS, st.sampled_from(["ana", "bob", "c"])),
        st.tuples(st.just("view"), EPSILONS, st.sampled_from(["full", "timed"])),
    ),
    max_size=40,
)


def apply_spends(acc: PrivacyAccountant, spends, seq: int = 0) -> int:
    for spend in spends:
        seq += 1
        if spend[0] == "read":
            assert_running_equals_recomputed(acc)
        elif spend[0] == "query":
            acc.spend("query:count", spend[1], ("query", seq))
        elif spend[0] == "tenant":
            segment = tenant_scoped_segment(("query", seq), spend[2])
            acc.spend("query:count", spend[1], segment)
        else:
            acc.spend(f"shrink:{spend[2]}", spend[1], ("view", spend[2], seq))
    return seq


class TestRunningTotals:
    """The accountant answers from running state; ``events`` stays the
    source of truth, so every running answer must equal the walk."""

    @settings(max_examples=150, deadline=None)
    @given(SPENDS, SPENDS)
    def test_running_totals_equal_the_walk_over_events(self, first, second):
        acc = PrivacyAccountant()
        assert_running_equals_recomputed(acc)
        seq = apply_spends(acc, first)
        assert_running_equals_recomputed(acc)
        # A restore replaces the log; into the same accountant (whose
        # running state describes the old log) and into a fresh one.
        fresh = PrivacyAccountant()
        fresh.restore_events([MechanismEvent(*e) for e in acc.snapshot_state()])
        acc.restore_events(acc.events[: len(first) // 2])
        assert_running_equals_recomputed(acc)
        for restored in (acc, fresh):
            apply_spends(restored, second, seq)
            assert_running_equals_recomputed(restored)
            # Code that appends to the log directly is still counted.
            restored.events.append(
                MechanismEvent("query:sum", 0.1, ("query", 999, "tenant", "ana"))
            )
            assert_running_equals_recomputed(restored)

    def test_no_query_spend_reads_as_integer_zero(self):
        """What ``sum()`` over nothing returned, and what a ``stats``
        frame therefore serialises — kept, so the frame is unchanged."""
        acc = PrivacyAccountant()
        acc.spend("shrink:full", 0.5, ("view", "full", 1))
        assert repr(acc.query_epsilon()) == "0"

    def test_reads_do_not_walk_the_log(self):
        """After the prefix is counted, a read looks at no event."""

        class CountingLog(list):
            sliced = 0

            def __getitem__(self, index):
                if isinstance(index, slice):
                    type(self).sliced += len(range(*index.indices(len(self))))
                return super().__getitem__(index)

        acc = PrivacyAccountant(events=CountingLog())
        for seq in range(1, 1001):
            acc.spend("q", 0.1, tenant_scoped_segment(("query", seq), "ana"))
            acc.query_epsilon()
        assert CountingLog.sliced == 1000  # each event visited once, ever
        acc.tenant_epsilon("ana"), acc.tenant_epsilons(), acc.query_epsilon()
        assert CountingLog.sliced == 1000

    def test_a_truncated_log_is_recounted(self):
        acc = PrivacyAccountant()
        for seq in range(1, 6):
            acc.spend("q", 0.1, ("query", seq))
        acc.query_epsilon()
        del acc.events[2:]
        assert_running_equals_recomputed(acc)


class TestStabilityAndTheorem3:
    def test_lemma2_multiplies(self):
        assert stability_composed_epsilon(10, 0.15) == pytest.approx(1.5)

    def test_negative_stability_rejected(self):
        with pytest.raises(PrivacyBudgetError):
            stability_composed_epsilon(-1, 1.0)

    def test_theorem3_worst_record(self):
        contributions = {
            "u1": [(1.0, 0.1), (1.0, 0.1)],
            "u2": [(2.0, 0.1)] * 5,  # worst: 5 × 0.2 = 1.0
        }
        assert theorem3_epsilon(contributions) == pytest.approx(1.0)

    def test_theorem3_empty(self):
        assert theorem3_epsilon({}) == 0.0

    def test_incshrink_instantiation_recovers_configured_epsilon(self):
        """A record in b/ω windows, ω-stable each, ε/b per release → ε."""
        omega, b, eps = 2, 10, 1.5
        windows = b // omega
        contributions = {"u": [(float(omega), eps / b)] * windows}
        assert theorem3_epsilon(contributions) == pytest.approx(eps)

    def test_group_privacy_conversion(self):
        assert event_to_user_epsilon(0.5, 4) == pytest.approx(2.0)
        with pytest.raises(PrivacyBudgetError):
            event_to_user_epsilon(0.5, 0)

    def test_system_composition(self):
        assert sequential_system_epsilon(0.5, 1.0) == pytest.approx(1.5)
        with pytest.raises(PrivacyBudgetError):
            sequential_system_epsilon(-1.0)


class TestBounds:
    def test_theorem4_scales_inverse_epsilon(self):
        loose = theorem4_deferred_bound(0.1, 10, 25)
        tight = theorem4_deferred_bound(1.0, 10, 25)
        assert loose == pytest.approx(10 * tight)

    def test_theorem4_formula(self):
        assert theorem4_deferred_bound(1.0, 2.0, 16, beta=0.05) == pytest.approx(
            2 * 2.0 * math.sqrt(16 * math.log(20))
        )

    def test_theorem4_min_updates(self):
        assert theorem4_min_updates(0.05) == math.ceil(4 * math.log(20))

    def test_theorem5_adds_flush_slop(self):
        base = theorem5_dummy_bound(1.0, 2.0, 16, T=10, flush_interval=100, flush_size=0)
        with_flush = theorem5_dummy_bound(
            1.0, 2.0, 16, T=10, flush_interval=100, flush_size=5
        )
        assert with_flush == pytest.approx(base + 5 * 16 * 10 / 100)

    def test_theorem6_grows_logarithmically(self):
        early = theorem6_deferred_bound(1.0, 2.0, 10)
        late = theorem6_deferred_bound(1.0, 2.0, 10_000)
        assert late > early
        assert late < early * 4  # log growth, not polynomial

    def test_theorem6_dummy_bound_counts_flushes(self):
        without = theorem6_dummy_bound(1.0, 2.0, 100, flush_interval=1000, flush_size=5)
        with_flushes = theorem6_dummy_bound(1.0, 2.0, 100, flush_interval=10, flush_size=5)
        assert with_flushes == pytest.approx(without + 5 * 10)

    def test_theorem17_composition_adds_owner_gap(self):
        base = theorem17_timer_error_bound(1.0, 2.0, 16, sync_alpha=0.0)
        composed = theorem17_timer_error_bound(1.0, 2.0, 16, sync_alpha=3.0)
        assert composed == pytest.approx(base + 6.0)
        ant = theorem17_ant_error_bound(1.0, 2.0, 100, sync_alpha=3.0)
        assert ant > 6.0

    def test_recommended_flush_size_positive_integer(self):
        s = recommended_flush_size(1.5, 10, 12)
        assert isinstance(s, int)
        assert s > 0

    def test_validation_errors(self):
        with pytest.raises(ConfigurationError):
            theorem4_deferred_bound(0.0, 1.0, 5)
        with pytest.raises(ConfigurationError):
            theorem4_deferred_bound(1.0, 1.0, 0)
        with pytest.raises(ConfigurationError):
            theorem6_deferred_bound(1.0, 1.0, 0)
        with pytest.raises(ConfigurationError):
            theorem5_dummy_bound(1.0, 1.0, 5, 10, flush_interval=0, flush_size=1)


class TestAllocation:
    def _operators(self):
        y = expected_dummy_volume(b=10, updates=16)
        return [
            OperatorSpec("join", "join", (1000, 1000), (y, y), output_size=500),
            OperatorSpec("filter", "filter", (500,), (y,), output_size=100),
        ]

    def test_efficiency_increases_with_epsilon(self):
        op = self._operators()[0]
        assert op.efficiency(2.0) > op.efficiency(0.5)

    def test_efficiency_clamped_at_zero(self):
        y = expected_dummy_volume(b=1000, updates=100)
        op = OperatorSpec("f", "filter", (10,), (y,), output_size=1)
        assert op.efficiency(0.001) == 0.0

    def test_query_efficiency_weights_by_output(self):
        ops = self._operators()
        eff = query_efficiency(ops, (1.0, 1.0))
        assert 0.0 <= eff <= 1.0

    def test_allocation_respects_budget(self):
        ops = self._operators()
        alloc, eff = allocate_budget(ops, total_epsilon=2.0, grid_steps=10)
        assert sum(alloc) == pytest.approx(2.0)
        assert all(a > 0 for a in alloc)

    def test_allocation_beats_worst_grid_point(self):
        ops = self._operators()
        alloc, best = allocate_budget(ops, total_epsilon=2.0, grid_steps=10)
        quantum = 2.0 / 10
        lopsided = (quantum, 2.0 - quantum)
        assert best >= query_efficiency(ops, lopsided) - 1e-12

    def test_single_operator_gets_everything(self):
        ops = self._operators()[:1]
        alloc, _ = allocate_budget(ops, total_epsilon=1.0)
        assert alloc == (1.0,)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            allocate_budget([], 1.0)
        with pytest.raises(ConfigurationError):
            allocate_budget(self._operators(), 0.0)
        with pytest.raises(ConfigurationError):
            expected_dummy_volume(0, 5)
        with pytest.raises(ConfigurationError):
            query_efficiency(self._operators(), (1.0,))
