"""Campaign orchestration: declarative, sharded, resumable sweeps.

The campaign layer turns the repo's Monte-Carlo figure sweeps into
declarative, cacheable artifacts:

* :mod:`repro.campaign.spec` — :class:`CampaignSpec` grids expanding
  into content-hashable :class:`CampaignPoint` values (every random
  ingredient an explicit seed);
* :mod:`repro.campaign.store` — :class:`CampaignStore`, a per-point
  JSON/npz chunk store keyed by content hash with a rebuildable
  manifest, chunk-integrity verification, and a quarantine for corrupt
  chunks (reruns skip completed points bit-for-bit);
* :mod:`repro.campaign.runner` — :class:`CampaignRunner`, sharding
  pending points over the network-sweep process-pool plumbing with
  per-point checkpointing, bounded retries with seeded-jitter backoff,
  per-point timeouts, and broken-pool → serial degradation;
* :mod:`repro.campaign.leases` — the point claim/heartbeat/expiry
  protocol letting N concurrent runners partition one store;
* :mod:`repro.campaign.storage` — the pluggable
  :class:`StorageDriver` layer every byte of campaign state flows
  through (posix with fsync-on-commit, in-memory, fault-injecting),
  with bounded per-operation retries and seeded-jitter backoff;
* :mod:`repro.campaign.objectstore` — the remote half:
  :class:`HttpDriver` speaking a minimal S3-style REST protocol to
  :class:`ObjectStoreService` (``python -m repro.campaign serve``),
  with server-side network-chaos injection and a client-side
  :class:`CircuitBreakerDriver`;
* :mod:`repro.campaign.faults` — deterministic fault injection
  (:class:`FaultPlan` / ``REPRO_FAULT_PLAN``, :class:`StorageFaultPlan`
  / ``REPRO_STORAGE_FAULT_PLAN``) exercising every recovery path
  above in CI;
* :mod:`repro.campaign.presets` — builtin specs matching the Fig.
  17/18 drivers seed for seed;
* ``python -m repro.campaign`` — ``run`` / ``status`` / ``export`` /
  ``serve``.

See the Campaign layer sections of ``docs/ARCHITECTURE.md``.
"""

from repro.campaign.faults import (
    FaultPlan,
    FaultRule,
    StorageFaultPlan,
    StorageFaultRule,
)
from repro.campaign.leases import LeaseManager
from repro.campaign.objectstore import (
    CircuitBreaker,
    CircuitBreakerDriver,
    HttpDriver,
    ObjectStoreService,
)
from repro.campaign.storage import (
    FaultyDriver,
    MemoryDriver,
    PosixDriver,
    RetryingDriver,
    StorageDriver,
    StorageRetryPolicy,
    build_driver,
    parse_driver_spec,
)
from repro.campaign.presets import (
    PRESETS,
    build_preset,
    fig17_campaign,
    fig18_campaign,
    noise_grid_campaign,
)
from repro.campaign.runner import (
    CampaignPointFailure,
    CampaignPointResult,
    CampaignRun,
    CampaignRunner,
    RetryPolicy,
    execute_point,
    run_campaign_sweep,
)
from repro.campaign.spec import CampaignPoint, CampaignSpec, derive_seeds
from repro.campaign.store import CampaignStore

__all__ = [
    "CampaignPoint",
    "CampaignPointFailure",
    "CampaignPointResult",
    "CampaignRun",
    "CampaignRunner",
    "CampaignSpec",
    "CampaignStore",
    "CircuitBreaker",
    "CircuitBreakerDriver",
    "FaultPlan",
    "FaultRule",
    "FaultyDriver",
    "HttpDriver",
    "LeaseManager",
    "MemoryDriver",
    "ObjectStoreService",
    "PRESETS",
    "PosixDriver",
    "RetryPolicy",
    "RetryingDriver",
    "StorageDriver",
    "StorageFaultPlan",
    "StorageFaultRule",
    "StorageRetryPolicy",
    "build_driver",
    "build_preset",
    "parse_driver_spec",
    "derive_seeds",
    "execute_point",
    "fig17_campaign",
    "fig18_campaign",
    "noise_grid_campaign",
    "run_campaign_sweep",
]
