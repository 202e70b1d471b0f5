"""Multi-tenant serving tests (``repro.tenancy`` + its wiring).

The headline claims, per ISSUE 10:

* **isolation without distortion** — tenant attribution rides the
  accountant's segment keys, so a multi-tenant deployment releases
  byte-identical noisy answers at identical realized ε to the
  single-tenant path, and the per-tenant ledgers sum exactly to the
  global query spend;
* **refusal before noise** — a query that would overdraw its tenant's
  budget is rejected with a structured ``budget-exhausted`` error
  before any noise is drawn, so the refusal never perturbs another
  tenant's answer stream;
* **authenticated admission** — wrong or missing credentials get a
  structured ``auth-failed`` error and a clean close; roles gate which
  frames a session may issue; per-tenant quotas reject with
  ``overloaded`` + retry_after;
* **durability** — ledgers round-trip through snapshots (format v3)
  with no double-spend on restore;
* **observability** — the metrics listener serves per-tenant ε and
  quota gauges in Prometheus text exposition format.
"""

from __future__ import annotations

import json
import socket
import struct
import time
import urllib.error
import urllib.request

import pytest

from repro.common.errors import (
    BudgetExhaustedError,
    ConfigurationError,
    PrivacyBudgetError,
    SecurityError,
)
from repro.dp.accountant import (
    segment_tenant,
    tenant_scoped_segment,
    theorem3_epsilon,
)
from repro.dp.allocation import split_query_epsilon
from repro.net import protocol as wire
from repro.net.backoff import (
    RETRY_AFTER_CAP,
    RETRY_AFTER_FLOOR,
    clamp_retry_after,
)
from repro.net.client import IncShrinkClient
from repro.net.metrics import MetricsServer, _number, render_metrics
from repro.net.server import NetworkServer
from repro.server.persistence import restore_database, snapshot_database
from repro.server.runtime import DatabaseServer
from repro.tenancy import (
    ROLE_FRAMES,
    Tenant,
    TenantGates,
    TenantLedger,
    TenantRegistry,
    TokenBucket,
    check_tenant_budget,
)

from test_dp_accounting import (
    assert_running_equals_recomputed,
    recomputed_query_epsilon,
    recomputed_tenant_epsilons,
)
from test_network import batches_at, build_database, epsilon_query, query_mix
from test_persistence import read_container


def make_registry(**overrides) -> TenantRegistry:
    """Three tenants covering every role; analysts get small budgets."""
    defaults = dict(
        owner=Tenant("owner-1", "owner-secret", role="owner"),
        analyst=Tenant(
            "analyst-1", "analyst-secret", role="analyst", epsilon_budget=1.0
        ),
        admin=Tenant("admin-1", "admin-secret", role="admin"),
    )
    defaults.update(overrides)
    return TenantRegistry(list(defaults.values()))


# -- registry validation -------------------------------------------------------
class TestRegistryValidation:
    def test_duplicate_tenant_id_names_the_id(self):
        with pytest.raises(ConfigurationError, match="duplicate tenant id 'a'"):
            TenantRegistry([Tenant("a", "t1"), Tenant("a", "t2")])

    def test_empty_tenant_id_names_the_value(self):
        with pytest.raises(ConfigurationError, match="tenant id.*got ''"):
            Tenant("", "tok")

    def test_non_string_tenant_id_rejected(self):
        with pytest.raises(ConfigurationError, match="tenant id.*got 7"):
            Tenant(7, "tok")

    def test_empty_token_names_the_tenant(self):
        with pytest.raises(ConfigurationError, match="'a': token"):
            Tenant("a", "")

    def test_oversized_token_rejected(self):
        with pytest.raises(ConfigurationError, match="token must be <= 1024"):
            Tenant("a", "x" * 1025)

    def test_unknown_role_lists_the_choices(self):
        with pytest.raises(ConfigurationError, match="role must be one of"):
            Tenant("a", "tok", role="superuser")

    def test_non_positive_budget_names_field_and_value(self):
        with pytest.raises(
            ConfigurationError, match="epsilon_budget must be positive, got 0"
        ):
            Tenant("a", "tok", epsilon_budget=0.0)
        with pytest.raises(
            ConfigurationError, match="epsilon_budget must be positive, got -1.5"
        ):
            Tenant("a", "tok", epsilon_budget=-1.5)

    def test_nan_budget_rejected(self):
        with pytest.raises(ConfigurationError, match="epsilon_budget"):
            Tenant("a", "tok", epsilon_budget=float("nan"))

    def test_bad_quota_fields_name_field_and_value(self):
        with pytest.raises(
            ConfigurationError, match="max_connections must be an integer >= 1"
        ):
            Tenant("a", "tok", max_connections=0)
        with pytest.raises(
            ConfigurationError, match="query_rate must be positive, got -2"
        ):
            Tenant("a", "tok", query_rate=-2.0)

    def test_empty_registry_rejected(self):
        with pytest.raises(ConfigurationError, match=">= 1 tenant"):
            TenantRegistry([])

    def test_from_specs_parses_optional_budget(self):
        reg = TenantRegistry.from_specs(
            ["a:tok-a:owner", "b:tok-b:analyst:2.5"]
        )
        assert reg.get("a").role == "owner"
        assert reg.get("a").epsilon_budget is None
        assert reg.budgets() == {"b": 2.5}

    def test_from_specs_rejects_malformed(self):
        with pytest.raises(ConfigurationError, match="malformed tenant spec"):
            TenantRegistry.from_specs(["a:tok"])
        with pytest.raises(ConfigurationError, match="must be a number"):
            TenantRegistry.from_specs(["a:tok:analyst:lots"])

    def test_from_file_round_trip_and_unknown_field(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text(
            json.dumps(
                {
                    "tenants": [
                        {"id": "a", "token": "tok", "role": "admin"},
                        {
                            "id": "b",
                            "token": "tok2",
                            "role": "analyst",
                            "epsilon_budget": 1.25,
                            "query_rate": 10,
                        },
                    ]
                }
            )
        )
        reg = TenantRegistry.from_file(path)
        assert sorted(reg.ids()) == ["a", "b"]
        assert reg.budgets() == {"b": 1.25}

        path.write_text(
            json.dumps({"tenants": [{"id": "a", "token": "t", "admin": True}]})
        )
        with pytest.raises(ConfigurationError, match=r"unknown field\(s\) \['admin'\]"):
            TenantRegistry.from_file(path)

    def test_authentication_is_exact(self):
        reg = make_registry()
        assert reg.authenticate("owner-1", "owner-secret").role == "owner"
        with pytest.raises(SecurityError, match="authentication failed"):
            reg.authenticate("owner-1", "wrong")
        with pytest.raises(SecurityError, match="authentication failed"):
            reg.authenticate("nobody", "owner-secret")
        for bad in (None, "", b"owner-secret", "x" * 2000):
            with pytest.raises(SecurityError, match="hello credentials"):
                reg.authenticate("owner-1", bad)

    def test_rejection_never_echoes_the_token(self):
        reg = make_registry()
        with pytest.raises(SecurityError) as excinfo:
            reg.authenticate("owner-1", "sup3r-s3cret-guess")
        assert "sup3r-s3cret-guess" not in str(excinfo.value)

    def test_role_frame_matrix(self):
        reg = make_registry()
        assert reg.allowed("owner", "upload")
        assert not reg.allowed("owner", "query")
        assert reg.allowed("analyst", "query")
        assert not reg.allowed("analyst", "snapshot")
        for frame in ("upload", "query", "snapshot", "reshard"):
            assert reg.allowed("admin", frame)
        assert not reg.allowed("ghost-role", "query")
        assert set(ROLE_FRAMES) == {"owner", "analyst", "admin"}


# -- retry_after clamping (satellite a) ----------------------------------------
class TestClampRetryAfter:
    def test_reasonable_hints_pass_through(self):
        assert clamp_retry_after(0.5) == 0.5
        assert clamp_retry_after(3) == 3.0

    @pytest.mark.parametrize(
        "hint", [None, 0, 0.0, -1, -0.001, float("nan"), "soon", [], {}]
    )
    def test_hostile_hints_clamp_to_floor(self, hint):
        out = clamp_retry_after(hint)
        assert out == RETRY_AFTER_FLOOR
        assert out > 0

    def test_huge_hints_clamp_to_cap(self):
        assert clamp_retry_after(float("inf")) == RETRY_AFTER_CAP
        assert clamp_retry_after(86400) == RETRY_AFTER_CAP

    def test_client_never_hot_loops_on_zero_retry_after(self):
        """A server hint of 0 must still yield a positive sleep."""
        for hostile in (0, None, -5):
            assert clamp_retry_after(hostile) >= 0.01


# -- quota primitives ----------------------------------------------------------
class TestQuotaPrimitives:
    def test_token_bucket_burst_then_throttle(self):
        ticks = iter([0.0, 0.0, 0.0, 0.0, 1.0]).__next__
        bucket = TokenBucket(rate=1.0, burst=2, clock=ticks)
        assert bucket.try_take() is None
        assert bucket.try_take() is None
        wait = bucket.try_take()
        assert wait == pytest.approx(1.0)
        assert bucket.try_take() is None  # one token refilled at t=1

    def test_token_bucket_rejects_bad_config(self):
        with pytest.raises(ConfigurationError, match="rate must be positive"):
            TokenBucket(rate=0.0)

    def test_gate_connection_cap_and_permits(self):
        gates = TenantGates(
            TenantRegistry(
                [Tenant("a", "t", max_connections=1, max_inflight=1)]
            )
        )
        gate = gates.gate("a")
        assert gate.try_connect()
        assert not gate.try_connect()
        gate.release_connection()
        assert gate.try_connect()
        assert gate.try_permit()
        assert not gate.try_permit()
        gate.release_permit()
        assert gate.try_permit()
        gate.note_rejection("overloaded")
        stats = gates.stats()
        assert stats["a"]["connections"] == 1
        assert stats["a"]["inflight"] == 1
        assert stats["a"]["rejections"] == {"overloaded": 1}

    def test_unlimited_tenant_never_throttles(self):
        gate = TenantGates(TenantRegistry([Tenant("a", "t")])).gate("a")
        for _ in range(100):
            assert gate.try_connect()
            assert gate.try_permit()
            assert gate.try_rate("query") is None
            assert gate.try_rate("upload", 50) is None


# -- ledger arithmetic ---------------------------------------------------------
class TestLedgerExactness:
    def test_tenant_spends_sum_exactly_to_global_query_epsilon(self):
        """N tenants' ledger entries partition the global query spend."""
        db = build_database()
        for t in range(1, 7):
            db.upload(t, batches_at(t))
        db.set_tenant_budgets({"t0": 5.0, "t1": 5.0, "t2": 5.0})
        spends = {"t0": [0.25, 0.5], "t1": [0.125], "t2": [1.0, 0.0625, 0.25]}
        for tid, epsilons in spends.items():
            for eps in epsilons:
                db.query(query_mix()[0], 6, epsilon=eps, tenant=tid)
        ledgers = db.tenant_epsilons()
        assert ledgers == {
            tid: sum(epsilons) for tid, epsilons in spends.items()
        }
        # Exact equality, not approx: attribution must not perturb the
        # ε arithmetic that Theorem 3 composes.
        assert sum(ledgers.values()) == db.query_epsilon()

    def test_untenanted_queries_stay_off_every_ledger(self):
        db = build_database()
        for t in range(1, 4):
            db.upload(t, batches_at(t))
        db.set_tenant_budgets({"a": 1.0})
        db.query(query_mix()[0], 3, epsilon=0.5)
        assert db.tenant_epsilons() == {}
        assert db.query_epsilon() == 0.5

    def test_overdraw_rejected_before_any_noise_is_drawn(self):
        db = build_database()
        for t in range(1, 4):
            db.upload(t, batches_at(t))
        db.set_tenant_budgets({"a": 1.0})
        db.query(query_mix()[0], 3, epsilon=0.75, tenant="a")
        with pytest.raises(BudgetExhaustedError) as excinfo:
            db.query(query_mix()[0], 3, epsilon=0.75, tenant="a")
        err = excinfo.value
        assert err.tenant == "a"
        assert err.requested == 0.75
        assert err.spent == 0.75
        assert err.budget == 1.0
        assert "0.25 of 1 remains" in str(err)
        # The refusal spent nothing, globally or on the ledger.
        assert db.tenant_epsilons() == {"a": 0.75}
        assert db.query_epsilon() == 0.75
        # Exact exhaustion is allowed (<=, within BUDGET_ATOL).
        db.query(query_mix()[0], 3, epsilon=0.25, tenant="a")
        assert db.tenant_epsilons() == {"a": 1.0}

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_a_non_finite_epsilon_is_refused_and_the_cap_holds(self, bad, tmp_path):
        """NaN passes every ``ε <= 0`` check and every ``spent + ε > cap``
        gate: accepted once, it left the ledger NaN and the cap gone."""
        db = build_database()
        for t in range(1, 4):
            db.upload(t, batches_at(t))
        db.set_tenant_budgets({"a": 1.0})
        noise = db.query_noise_gen.bit_generator.state
        with pytest.raises(ConfigurationError, match="finite and positive"):
            db.query(query_mix()[0], 3, epsilon=bad, tenant="a")
        assert db.accountant.events == [] and len(db.metrics.queries) == 0
        assert db.query_noise_gen.bit_generator.state == noise
        db.query(query_mix()[0], 3, epsilon=0.9, tenant="a")
        with pytest.raises(BudgetExhaustedError):
            db.query(query_mix()[0], 3, epsilon=0.9, tenant="a")
        assert db.tenant_epsilons() == {"a": 0.9} and db.query_epsilon() == 0.9
        snapshot_database(db, tmp_path / "capped.snap")
        restored = restore_database(tmp_path / "capped.snap").database
        assert restored.tenant_epsilons() == {"a": 0.9}

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_the_mechanisms_refuse_a_non_finite_epsilon(self, bad):
        db = build_database()
        with pytest.raises(PrivacyBudgetError, match="finite and positive"):
            db.accountant.spend("query:count", bad, ("query", 1))
        with pytest.raises(ConfigurationError, match="finite and positive"):
            split_query_epsilon([1.0, 2.0], bad)
        assert db.accountant.events == []

    def test_check_tenant_budget_ignores_uncapped_tenants(self):
        db = build_database()
        check_tenant_budget(db.accountant, {}, "anyone", 1e9)  # no cap, no-op

    def test_segment_scoping_round_trip(self):
        scoped = tenant_scoped_segment(("query", 7), "alice")
        assert segment_tenant(scoped) == "alice"
        assert segment_tenant(("query", 7)) is None
        assert scoped[:1] == ("query",)  # query_epsilon() prefix intact

    def test_ledger_summary_shape(self):
        db = build_database()
        for t in range(1, 4):
            db.upload(t, batches_at(t))
        db.set_tenant_budgets({"a": 2.0})
        db.query(query_mix()[0], 3, epsilon=0.5, tenant="a")
        summary = TenantLedger(db.accountant, db.tenant_budgets).summary()
        assert summary["a"] == {
            "epsilon_spent": 0.5,
            "epsilon_budget": 2.0,
            "epsilon_remaining": 1.5,
        }

    def test_set_tenant_budgets_validates(self):
        db = build_database()
        with pytest.raises(ConfigurationError, match="must be positive"):
            db.set_tenant_budgets({"a": 0.0})
        with pytest.raises(ConfigurationError, match="non-empty string"):
            db.set_tenant_budgets({"": 1.0})


def recomputed_summary(accountant, budgets) -> dict[str, dict]:
    """``TenantLedger.summary`` from one walk over ``events``."""
    spends = recomputed_tenant_epsilons(accountant)
    return {
        tenant: {
            "epsilon_spent": spends.get(tenant, 0.0),
            "epsilon_budget": budgets.get(tenant),
            "epsilon_remaining": (
                max(budgets[tenant] - spends.get(tenant, 0.0), 0.0)
                if tenant in budgets
                else None
            ),
        }
        for tenant in sorted(set(spends) | set(budgets))
    }


class TestRunningLedgers:
    """Every ledger read is served from the accountant's running totals;
    each must equal the walk over ``events`` exactly (``==``)."""

    BUDGETS = {"ana": 1.0, "bob": 50.0}
    #: third-of-something spends: no finite binary expansion
    SPENDS = [("ana", 0.1), ("bob", 1 / 3), ("cy", 0.7), ("ana", 0.1), ("bob", 0.01)]

    def _assert_ledgers_exact(self, db) -> None:
        assert_running_equals_recomputed(db.accountant)
        ledger = TenantLedger(db.accountant, db.tenant_budgets)
        oracle = recomputed_summary(db.accountant, db.tenant_budgets)
        assert ledger.summary() == oracle
        for tenant, entry in oracle.items():
            assert ledger.spent(tenant) == entry["epsilon_spent"]
            assert ledger.remaining(tenant) == entry["epsilon_remaining"]

    def test_summary_equals_the_walk_through_snapshot_and_more_spends(
        self, tmp_path
    ):
        db = build_database()
        for t in range(1, 7):
            db.upload(t, batches_at(t))
        db.set_tenant_budgets(self.BUDGETS)
        self._assert_ledgers_exact(db)
        for tenant, eps in self.SPENDS:
            db.query(query_mix()[1], 6, epsilon=eps, tenant=tenant)
            self._assert_ledgers_exact(db)
        snapshot_database(db, tmp_path / "ledgers.snapshot")
        restored = restore_database(tmp_path / "ledgers.snapshot").database
        self._assert_ledgers_exact(restored)
        assert restored.tenant_epsilons() == db.tenant_epsilons()
        for tenant, eps in self.SPENDS:
            for side in (db, restored):
                side.query(query_mix()[1], 6, epsilon=eps, tenant=tenant)
            self._assert_ledgers_exact(restored)
            assert restored.tenant_epsilons() == db.tenant_epsilons()
            assert restored.query_epsilon() == db.query_epsilon()

    def test_gate_decides_at_the_cap_as_the_walk_does(self):
        """Ten 0.1 spends do not add up to 1.0 in floats; the gate must
        admit and refuse on the very total the walk over events gives."""
        db = build_database()
        db.set_tenant_budgets({"ana": 1.0})
        acc = db.accountant
        for seq in range(1, 10):  # cap − ε: the tenth 0.1 is admitted
            check_tenant_budget(acc, db.tenant_budgets, "ana", 0.1)
            acc.spend("query:count", 0.1, ("query", seq, "tenant", "ana"))
        assert acc.tenant_epsilon("ana") == recomputed_tenant_epsilons(acc)["ana"]
        assert acc.tenant_epsilon("ana") != 0.9  # 0.8999999999999999
        check_tenant_budget(acc, db.tenant_budgets, "ana", 0.1)
        acc.spend("query:count", 0.1, ("query", 10, "tenant", "ana"))
        # At the cap: only the 1e-9 rounding allowance is left.
        check_tenant_budget(acc, db.tenant_budgets, "ana", 1e-10)
        with pytest.raises(BudgetExhaustedError) as excinfo:
            check_tenant_budget(acc, db.tenant_budgets, "ana", 1e-6)
        assert excinfo.value.spent == recomputed_tenant_epsilons(acc)["ana"]
        assert repr(excinfo.value.spent) == "0.9999999999999999"


# -- isolation without distortion ----------------------------------------------
class TestTenantTransparency:
    def test_multi_tenant_answers_byte_identical_to_single_tenant(self):
        """Attribution must not move a single noise draw or ε split."""
        control = build_database()
        tenanted = build_database()
        for t in range(1, 7):
            control.upload(t, batches_at(t))
            tenanted.upload(t, batches_at(t))
        tenanted.set_tenant_budgets({"ana": 10.0, "bob": 10.0})

        tenants = ["ana", "bob", "ana"]
        for i, tid in enumerate(tenants):
            eps = 0.5 + i * 0.25
            ref = control.query(epsilon_query(), 6, epsilon=eps)
            out = tenanted.query(epsilon_query(), 6, epsilon=eps, tenant=tid)
            assert out.answers == ref.answers
            assert out.logical_answers == ref.logical_answers
        assert control.realized_epsilon() == tenanted.realized_epsilon()
        assert control.query_epsilon() == tenanted.query_epsilon()
        assert tenanted.tenant_epsilons() == {"ana": 0.5 + 1.0, "bob": 0.75}

    def test_rejected_query_does_not_perturb_the_noise_stream(self):
        control = build_database()
        tenanted = build_database()
        for t in range(1, 7):
            control.upload(t, batches_at(t))
            tenanted.upload(t, batches_at(t))
        tenanted.set_tenant_budgets({"ana": 10.0, "poor": 0.25})

        ref1 = control.query(epsilon_query(), 6, epsilon=0.5)
        out1 = tenanted.query(epsilon_query(), 6, epsilon=0.5, tenant="ana")
        assert out1.answers == ref1.answers
        with pytest.raises(BudgetExhaustedError):
            tenanted.query(epsilon_query(), 6, epsilon=0.5, tenant="poor")
        # The refused query drew no noise: the next draw still matches.
        ref2 = control.query(epsilon_query(), 6, epsilon=0.5)
        out2 = tenanted.query(epsilon_query(), 6, epsilon=0.5, tenant="ana")
        assert out2.answers == ref2.answers


# -- snapshot durability -------------------------------------------------------
class TestLedgerPersistence:
    def test_ledgers_round_trip_without_double_spend(self, tmp_path):
        db = build_database()
        for t in range(1, 7):
            db.upload(t, batches_at(t))
        db.set_tenant_budgets({"ana": 1.0, "bob": 2.0})
        db.query(query_mix()[0], 6, epsilon=0.75, tenant="ana")
        db.query(query_mix()[0], 6, epsilon=0.5, tenant="bob")
        path = tmp_path / "tenants.snapshot"
        snapshot_database(db, path)

        restored = restore_database(path).database
        assert restored.tenant_budgets == {"ana": 1.0, "bob": 2.0}
        assert restored.tenant_epsilons() == db.tenant_epsilons()
        assert restored.query_epsilon() == db.query_epsilon()
        # No double-spend: the restored ledger still has exactly the
        # 0.25 ana headroom the live one had.
        with pytest.raises(BudgetExhaustedError):
            restored.query(query_mix()[0], 6, epsilon=0.5, tenant="ana")
        restored.query(query_mix()[0], 6, epsilon=0.25, tenant="ana")
        assert restored.tenant_epsilons()["ana"] == 1.0

    def test_uncapped_snapshots_restore_uncapped(self, tmp_path):
        """A deployment with no tenant caps writes none and restores with
        none."""
        db = build_database()
        for t in range(1, 4):
            db.upload(t, batches_at(t))
        path = tmp_path / "plain.snapshot"
        snapshot_database(db, path)
        assert read_container(path)[0]["body"]["tenant_budgets"] == {}
        assert restore_database(path).database.tenant_budgets == {}


# -- authenticated admission over the wire -------------------------------------
def _tenanted_net(registry=None, **net_kwargs):
    server = DatabaseServer(build_database())
    net = NetworkServer(
        server, registry=registry or make_registry(), **net_kwargs
    )
    return server, net


class TestWireAuth:
    def test_welcome_names_tenant_and_role(self):
        server, net = _tenanted_net()
        with net:
            host, port = net.address
            with IncShrinkClient(
                host, port, tenant="analyst-1", token="analyst-secret"
            ) as client:
                assert client.server_info["tenant"] == "analyst-1"
                assert client.server_info["role"] == "analyst"
        server.stop()
        assert net._unhandled_errors == []

    @pytest.mark.parametrize(
        "creds", [("analyst-1", "wrong"), ("ghost", "analyst-secret")]
    )
    def test_wrong_token_gets_structured_error_and_clean_close(self, creds):
        tenant, token = creds
        server, net = _tenanted_net()
        with net:
            host, port = net.address
            client = IncShrinkClient(
                host, port, tenant=tenant, token=token, connect_retries=1
            )
            with pytest.raises(wire.RemoteError) as excinfo:
                client.connect()
            assert excinfo.value.code == wire.ERR_AUTH_FAILED
            assert token not in str(excinfo.value)
        server.stop()
        assert net._unhandled_errors == []

    def test_missing_credentials_rejected_on_registry_server(self):
        server, net = _tenanted_net()
        with net:
            host, port = net.address
            client = IncShrinkClient(host, port, connect_retries=1)
            with pytest.raises(wire.RemoteError) as excinfo:
                client.connect()
            assert excinfo.value.code == wire.ERR_AUTH_FAILED
        server.stop()

    def test_no_registry_preserves_unauthenticated_access(self):
        server = DatabaseServer(build_database())
        with NetworkServer(server) as net:
            host, port = net.address
            with IncShrinkClient(host, port) as client:
                assert "tenant" not in client.server_info
                client.upload(1, batches_at(1), wait=True)
                result = client.query(query_mix()[0], time=1)
                assert result.answers is not None
        server.stop()

    def test_credentialed_client_accepted_by_open_server(self):
        """Offering tenant/token to a no-registry server is harmless."""
        server = DatabaseServer(build_database())
        with NetworkServer(server) as net:
            host, port = net.address
            with IncShrinkClient(
                host, port, tenant="anyone", token="anything"
            ) as client:
                assert client.stats()["uploads"] == 0
        server.stop()


class TestWireRoles:
    def test_role_matrix_over_the_wire(self):
        server, net = _tenanted_net()
        with net:
            host, port = net.address
            with IncShrinkClient(
                host, port, tenant="owner-1", token="owner-secret"
            ) as owner:
                owner.upload(1, batches_at(1), wait=True)
                with pytest.raises(wire.RemoteError) as excinfo:
                    owner.query(query_mix()[0], time=1)
                assert excinfo.value.code == wire.ERR_FORBIDDEN
                assert "'owner'" in str(excinfo.value)
                # The refusal left the connection serviceable.
                assert owner.stats()["uploads"] > 0

            with IncShrinkClient(
                host, port, tenant="analyst-1", token="analyst-secret"
            ) as analyst:
                result = analyst.query(query_mix()[0], time=1)
                assert result.answers is not None
                with pytest.raises(wire.RemoteError) as excinfo:
                    analyst.upload(2, batches_at(2))
                assert excinfo.value.code == wire.ERR_FORBIDDEN

            with IncShrinkClient(
                host, port, tenant="admin-1", token="admin-secret"
            ) as admin:
                out = admin.reshard(2)
                assert out["n_shards"] == 2
        server.stop()
        assert net._unhandled_errors == []

    def test_budget_exhausted_is_structured_and_non_fatal(self):
        server, net = _tenanted_net()
        with net:
            host, port = net.address
            with IncShrinkClient(
                host, port, tenant="owner-1", token="owner-secret"
            ) as owner:
                for t in range(1, 4):
                    owner.upload(t, batches_at(t), wait=True)
            with IncShrinkClient(
                host, port, tenant="analyst-1", token="analyst-secret"
            ) as analyst:
                analyst.query(query_mix()[0], time=3, epsilon=0.75)
                with pytest.raises(wire.RemoteError) as excinfo:
                    analyst.query(query_mix()[0], time=3, epsilon=0.75)
                err = excinfo.value
                assert err.code == wire.ERR_BUDGET_EXHAUSTED
                assert err.retry_after is None  # not retryable
                # The connection survives; the ledger is visible.
                stats = analyst.stats()
                assert stats["tenants"]["analyst-1"]["epsilon_spent"] == 0.75
        server.stop()
        assert net._unhandled_errors == []

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), "nan"], ids=["NaN", "Infinity", "str-nan"]
    )
    def test_a_non_finite_epsilon_frame_is_an_invalid_request(self, bad):
        """A raw query frame whose head carries ``NaN``, ``Infinity`` or
        ``"nan"`` as its ε is refused at decode; the tenant's cap still
        holds, and its ledger stays finite."""
        server, net = _tenanted_net()
        with net:
            host, port = net.address
            with IncShrinkClient(
                host, port, tenant="owner-1", token="owner-secret"
            ) as owner:
                for t in range(1, 4):
                    owner.upload(t, batches_at(t), wait=True)
            with IncShrinkClient(
                host, port, tenant="analyst-1", token="analyst-secret"
            ) as analyst:
                frame = {"query": wire.encode_query(query_mix()[0]), "time": 3, "epsilon": bad}
                with pytest.raises(wire.RemoteError) as excinfo:
                    analyst._request("query", frame, expect="result")
                assert excinfo.value.code == wire.ERR_INVALID_REQUEST
                assert "finite and positive" in excinfo.value.remote_message
                analyst.query(query_mix()[0], time=3, epsilon=0.9)
                with pytest.raises(wire.RemoteError) as excinfo:
                    analyst.query(query_mix()[0], time=3, epsilon=0.9)
                assert excinfo.value.code == wire.ERR_BUDGET_EXHAUSTED
                stats = analyst.stats()
                assert stats["tenants"]["analyst-1"]["epsilon_spent"] == 0.9
        server.stop()
        assert server.database.query_epsilon() == 0.9
        assert net._unhandled_errors == []

    def test_exhausted_analyst_never_distorts_other_tenants(self):
        """The acceptance scenario: one tenant's exhaustion is invisible
        to the others, byte-for-byte and ε-for-ε."""
        # Control universe: single-tenant, same seed, same stream,
        # through the same serving runtime (so planner routing and
        # noise draws line up with the network path).
        control = DatabaseServer(build_database()).start()
        for t in range(1, 7):
            control.submit(t, batches_at(t))
        control.drain()
        ref1 = control.query(epsilon_query(), epsilon=0.5)
        # The poor analyst's one *successful* release happens in both
        # universes; only the refused query must draw nothing.
        control.query(query_mix()[0], epsilon=1.0)
        ref2 = control.query(epsilon_query(), epsilon=0.5)
        control.stop()

        registry = make_registry(
            analyst=Tenant(
                "analyst-1", "analyst-secret", role="analyst",
                epsilon_budget=1.0,
            ),
            rich=Tenant(
                "analyst-2", "analyst2-secret", role="analyst",
                epsilon_budget=100.0,
            ),
        )
        server, net = _tenanted_net(registry=registry)
        with net:
            host, port = net.address
            with IncShrinkClient(
                host, port, tenant="owner-1", token="owner-secret"
            ) as owner:
                for t in range(1, 7):
                    owner.upload(t, batches_at(t), wait=True)
            with IncShrinkClient(
                host, port, tenant="analyst-2", token="analyst2-secret"
            ) as rich, IncShrinkClient(
                host, port, tenant="analyst-1", token="analyst-secret"
            ) as poor:
                out1 = rich.query(epsilon_query(), time=6, epsilon=0.5)
                assert out1.answers == ref1.answers
                poor.query(query_mix()[0], time=6, epsilon=1.0)
                with pytest.raises(wire.RemoteError) as excinfo:
                    poor.query(query_mix()[0], time=6, epsilon=0.5)
                assert excinfo.value.code == wire.ERR_BUDGET_EXHAUSTED
                # The other tenant's stream is untouched by the refusal.
                out2 = rich.query(epsilon_query(), time=6, epsilon=0.5)
                assert out2.answers == ref2.answers
                spent = poor.stats()["tenants"]
                assert spent["analyst-1"]["epsilon_spent"] == 1.0
                assert spent["analyst-2"]["epsilon_spent"] == 1.0
        server.stop()
        assert net._unhandled_errors == []


class TestWireQuotas:
    def test_per_tenant_connection_cap(self):
        registry = TenantRegistry(
            [
                Tenant("solo", "solo-secret", role="analyst", max_connections=1),
                Tenant("open", "open-secret", role="analyst"),
            ]
        )
        server, net = _tenanted_net(registry=registry)
        with net:
            host, port = net.address
            with IncShrinkClient(
                host, port, tenant="solo", token="solo-secret"
            ):
                second = IncShrinkClient(
                    host, port, tenant="solo", token="solo-secret",
                    connect_retries=1,
                )
                with pytest.raises(wire.RemoteError) as excinfo:
                    second.connect()
                assert excinfo.value.code == wire.ERR_OVERLOADED
                assert excinfo.value.retry_after is not None
                # Another tenant's cap is its own business.
                with IncShrinkClient(
                    host, port, tenant="open", token="open-secret"
                ) as other:
                    assert other.stats() is not None
            # The cap releases with the connection.
            with IncShrinkClient(
                host, port, tenant="solo", token="solo-secret"
            ) as again:
                assert again.stats() is not None
        server.stop()
        assert net._unhandled_errors == []

    def test_query_rate_limit_rejects_with_retry_after(self):
        registry = TenantRegistry(
            [
                Tenant("owner-1", "owner-secret", role="owner"),
                Tenant(
                    "slow", "slow-secret", role="analyst",
                    query_rate=0.001, burst=1,
                ),
            ]
        )
        server, net = _tenanted_net(registry=registry)
        with net:
            host, port = net.address
            with IncShrinkClient(
                host, port, tenant="owner-1", token="owner-secret"
            ) as owner:
                owner.upload(1, batches_at(1), wait=True)
            with IncShrinkClient(
                host, port, tenant="slow", token="slow-secret", busy_retries=0
            ) as slow:
                slow.query(query_mix()[0], time=1)  # burst token
                with pytest.raises(wire.RemoteError) as excinfo:
                    slow.query(query_mix()[0], time=1)
                assert excinfo.value.code == wire.ERR_OVERLOADED
                assert excinfo.value.retry_after > 0
                gauges = net.tenancy_stats()["slow"]
                assert gauges["rejections"] == {"query-rate": 1}
        server.stop()
        assert net._unhandled_errors == []


# -- metrics surface -----------------------------------------------------------
class TestMetrics:
    def _observability(self, net):
        return net.server.observability()

    def test_render_metrics_is_valid_prometheus_text(self):
        server, net = _tenanted_net()
        with net:
            host, port = net.address
            with IncShrinkClient(
                host, port, tenant="owner-1", token="owner-secret"
            ) as owner:
                owner.upload(1, batches_at(1), wait=True)
            text = render_metrics(
                net.server.observability(), net.tenancy_stats()
            )
        server.stop()
        assert text.endswith("\n")
        lines = text.splitlines()
        helps = [l for l in lines if l.startswith("# HELP")]
        types = [l for l in lines if l.startswith("# TYPE")]
        assert len(helps) == len(types)
        # HELP/TYPE emitted exactly once per metric name.
        names = [l.split()[2] for l in helps]
        assert len(names) == len(set(names))
        samples = [l for l in lines if not l.startswith("#")]
        for sample in samples:
            name_and_labels, value = sample.rsplit(" ", 1)
            float(value)  # every sample value parses as a number
            assert name_and_labels.startswith("incshrink_")
        assert any(l.startswith("incshrink_uploads ") for l in samples)
        assert (
            'incshrink_tenant_epsilon_budget{role="analyst",tenant="analyst-1"} 1'
            in samples
        )

    def test_label_escaping(self):
        registry = TenantRegistry(
            [Tenant('we"ird\\ten\nant', "tok", role="analyst", epsilon_budget=1.0)]
        )
        server, net = _tenanted_net(registry=registry)
        with net:
            text = render_metrics(
                net.server.observability(), net.tenancy_stats()
            )
        server.stop()
        assert 'tenant="we\\"ird\\\\ten\\nant"' in text

    def test_an_uncapped_tenant_stats_head_is_strict_json(self):
        """The ``stats`` frame's head parses with no non-JSON constant
        (``Infinity``, ``NaN``) allowed; the uncapped budget and its
        headroom are spelled ``"Infinity"``, which reads back as inf."""
        registry = TenantRegistry.from_specs(["a:tok:analyst:inf"])
        server, net = _tenanted_net(registry=registry)

        def refuse(constant):
            raise AssertionError(f"non-JSON constant {constant} in a head")

        with net:
            host, port = net.address
            with socket.create_connection((host, port), timeout=10) as sock:
                stream = sock.makefile("rwb")
                for frame_type, payload in (
                    ("hello", {"client": "t", "tenant": "a", "token": "tok"}),
                    ("stats", {}),
                ):
                    wire.write_frame(stream, frame_type, payload)
                    header = stream.read(10)
                    body = stream.read(struct.unpack(">4sBBI", header)[3])
                (head_len,) = struct.unpack(">I", body[:4])
                head = json.loads(body[4 : 4 + head_len], parse_constant=refuse)
        server.stop()
        assert wire.FRAME_NAMES[header[5]] == "stats_result"
        entry = head["tenants"]["a"]
        assert entry["epsilon_budget"] == entry["epsilon_remaining"] == "Infinity"
        assert float(entry["epsilon_budget"]) == float("inf")
        assert net._unhandled_errors == []

    def test_an_uncapped_tenant_scrapes_as_plus_inf(self):
        registry = TenantRegistry.from_specs(["a:tok:analyst:inf"])
        server, net = _tenanted_net(registry=registry)
        with net, MetricsServer(net, port=0) as metrics:
            mhost, mport = metrics.address
            with urllib.request.urlopen(
                f"http://{mhost}:{mport}/metrics", timeout=5
            ) as resp:
                assert resp.status == 200
                samples = resp.read().decode().splitlines()
        server.stop()
        assert 'incshrink_tenant_epsilon_budget{role="analyst",tenant="a"} +Inf' in samples
        assert 'incshrink_tenant_epsilon_remaining{role="analyst",tenant="a"} +Inf' in samples

    @pytest.mark.parametrize(
        "value, text",
        [
            (float("inf"), "+Inf"),
            (float("-inf"), "-Inf"),
            (float("nan"), "NaN"),
            (True, "1"),
            (False, "0"),
            (3.0, "3"),
            (7, "7"),
            (0.25, "0.25"),
            (1e15 - 1, "999999999999999"),
            (1e15, "1000000000000000.0"),
            ("not a number", "0"),
            (None, "0"),
        ],
    )
    def test_sample_values_use_exposition_syntax(self, value, text):
        assert _number(value) == text
        parsed = float(text)  # Prometheus reads every rendering back
        if isinstance(value, (int, float)) and parsed == parsed:
            assert parsed == float(value)

    def test_metrics_server_serves_scrapes_and_health(self):
        server, net = _tenanted_net()
        with net:
            with MetricsServer(net, port=0) as metrics:
                mhost, mport = metrics.address
                base = f"http://{mhost}:{mport}"
                with urllib.request.urlopen(f"{base}/metrics", timeout=5) as resp:
                    assert resp.status == 200
                    assert resp.headers["Content-Type"].startswith(
                        "text/plain; version=0.0.4"
                    )
                    body = resp.read().decode()
                assert "incshrink_tenant_epsilon_remaining" in body
                with urllib.request.urlopen(f"{base}/healthz", timeout=5) as resp:
                    assert resp.read() == b"ok\n"
                # An HTTPError owns the error response and its socket:
                # close it, or the socket outlives the test.
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(f"{base}/nope", timeout=5)
                with excinfo.value as error:
                    assert error.code == 404
                req = urllib.request.Request(
                    f"{base}/metrics", data=b"x", method="POST"
                )
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(req, timeout=5)
                with excinfo.value as error:
                    assert error.code == 405
        server.stop()

    def test_scrape_is_byte_for_byte_what_the_from_scratch_ledgers_render(self):
        """``/metrics`` answers from running ledgers; its text must be
        the text rendered from Theorem 3 over every record and one walk
        over the accountant's events — every digit of every gauge."""
        server, net = _tenanted_net()
        with net, MetricsServer(net, port=0) as metrics:
            host, port = net.address
            with IncShrinkClient(
                host, port, tenant="owner-1", token="owner-secret"
            ) as owner:
                for t in range(1, 7):
                    owner.upload(t, batches_at(t), wait=True)
            with IncShrinkClient(
                host, port, tenant="analyst-1", token="analyst-secret"
            ) as analyst:
                for eps in (0.1, 1 / 3, 0.1, 0.01):
                    analyst.query(epsilon_query(), time=6, epsilon=eps)
            # ``bye`` is answered before the loop books the close: let the
            # connection gauges settle, or the scrape races the oracle.
            deadline = time.monotonic() + 5.0
            while net.open_connections and time.monotonic() < deadline:
                time.sleep(0.005)
            mhost, mport = metrics.address
            with urllib.request.urlopen(
                f"http://{mhost}:{mport}/metrics", timeout=5
            ) as resp:
                body = resp.read().decode()
            db = server.database
            view_eps = {
                name: theorem3_epsilon(
                    vr.group.ledger.theorem3_contributions(
                        vr.epsilon / vr.view_def.budget
                    )
                )
                for name, vr in db.views.items()
                if vr.mode != "ep"
            }
            query_eps = recomputed_query_epsilon(db.accountant)
            oracle = dict(net.server.observability())
            # One component (both views join the same two tables).
            oracle["realized_epsilon"] = sum(view_eps.values()) + query_eps
            oracle["query_epsilon"] = query_eps
            tenants = net.tenancy_stats()
            for tid, entry in recomputed_summary(
                db.accountant, db.tenant_budgets
            ).items():
                tenants[tid].update(entry)
        server.stop()
        assert view_eps and all(eps > 0 for eps in view_eps.values())
        assert render_metrics(oracle, tenants) == body
        spent = 0.0
        for eps in (0.1, 1 / 3, 0.1, 0.01):
            spent += eps
        assert (
            'incshrink_tenant_epsilon_spent{role="analyst",tenant="analyst-1"} '
            f"{spent!r}\n" in body
        )

    def test_metrics_endpoint_is_read_only_and_unauthenticated(self):
        """Scrapes need no tenant credentials and mutate nothing."""
        server, net = _tenanted_net()
        with net:
            with MetricsServer(net, port=0) as metrics:
                mhost, mport = metrics.address
                before = net.server.observability()
                for _ in range(3):
                    with urllib.request.urlopen(
                        f"http://{mhost}:{mport}/metrics", timeout=5
                    ) as resp:
                        resp.read()
                after = net.server.observability()
                assert before["queries"] == after["queries"]
                assert before["uploads"] == after["uploads"]
        server.stop()


# -- audit trail ---------------------------------------------------------------
class TestAuditLog:
    def test_audit_events_record_refusals_without_tokens(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        server = DatabaseServer(build_database())
        net = NetworkServer(
            server, registry=make_registry(), audit_log=str(path)
        )
        with net:
            host, port = net.address
            bad = IncShrinkClient(
                host, port, tenant="analyst-1", token="WRONG", connect_retries=1
            )
            with pytest.raises(wire.RemoteError):
                bad.connect()
            with IncShrinkClient(
                host, port, tenant="owner-1", token="owner-secret"
            ) as owner:
                with pytest.raises(wire.RemoteError):
                    owner.query(query_mix()[0], time=0)
        server.stop()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert [e["event"] for e in events] == ["auth-failed", "forbidden"]
        assert events[0]["tenant"] == "analyst-1"
        assert events[1]["role"] == "owner"
        for event in events:
            assert "WRONG" not in json.dumps(event)
            assert "owner-secret" not in json.dumps(event)
        assert [e["event"] for e in net.audit_events] == [
            "auth-failed",
            "forbidden",
        ]
