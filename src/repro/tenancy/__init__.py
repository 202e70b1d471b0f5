"""Multi-tenant serving: identity, budget isolation, and quotas.

One IncShrink deployment serves many mutually-distrusting principals —
data *owners* streaming uploads, *analysts* spending privacy budget on
noisy releases, and *admins* operating the deployment (Shrinkwrap's
multi-party setting; DP-Sync's owner/analyst split).  This package is
the subsystem that keeps them apart:

* :mod:`~repro.tenancy.registry` — who may connect: tenant identities
  with pre-shared tokens (verified constant-time), roles gating which
  request frames a session may issue, per-tenant ε budgets, and
  connection/rate quotas; loaded from a JSON config file or CLI flags.
* :mod:`~repro.tenancy.ledger` — per-tenant privacy ledgers layered on
  the shared :class:`~repro.dp.accountant.PrivacyAccountant`: every
  noisy query release is attributed to its tenant through a
  tenant-scoped accountant segment, and a query that would overdraw its
  tenant's budget is rejected **before any noise is drawn**.  The global
  Theorem-3 composition is untouched — tenant attribution rides the
  segment key, never the ε arithmetic.
* :mod:`~repro.tenancy.quota` — admission-gate state: token-bucket
  upload/query rate limits, per-tenant connection caps and in-flight
  permits, all rejecting with structured ``overloaded`` + retry_after
  instead of buffering.

The network front door (:mod:`repro.net.server`) threads all three
through its handshake and dispatch paths; with no registry configured
every surface behaves exactly as before (unauthenticated single-tenant
mode).
"""

from .._lazy import lazy_exports

__all__ = [
    "ROLES",
    "ROLE_FRAMES",
    "Tenant",
    "TenantRegistry",
    "TenantLedger",
    "check_tenant_budget",
    "TokenBucket",
    "TenantGates",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".ledger": ("TenantLedger", "check_tenant_budget"),
    ".quota": ("TenantGates", "TokenBucket"),
    ".registry": ("ROLE_FRAMES", "ROLES", "Tenant", "TenantRegistry"),
})
