"""Deterministic fault injection for the campaign execution layer.

Every recovery path in the campaign runner/store — retry after a worker
crash, per-point timeout of a hung worker, ``BrokenProcessPool`` →
serial degradation, torn-chunk quarantine — is exercised in CI through
this harness rather than trusted. A :class:`FaultPlan` is a *seeded,
declarative* list of :class:`FaultRule`\\ s saying exactly which points
fail, how, and on which attempt:

.. code-block:: json

    {
      "schema": "repro-fault-plan-v1",
      "seed": 0,
      "rules": [
        {"stage": "execute", "kind": "crash",
         "match": {"n_devices": 16}, "attempts": [1]},
        {"stage": "execute", "kind": "hang",
         "match": {"hash_prefix": "3f"}, "attempts": [1], "hang_s": 0.5},
        {"stage": "write", "kind": "torn", "match": {}, "attempts": [1]}
      ]
    }

Rules fire on explicit *attempt numbers* (the runner threads the
current attempt through), so injection is reproducible across serial
runs, process pools, and resumed campaigns without shared mutable
state. The plan reaches out-of-process pool workers by value (it is a
frozen, picklable dataclass) and reaches subprocess-launched runners
via the ``REPRO_FAULT_PLAN`` environment variable (inline JSON, or a
path to a JSON file).

Fault kinds:

``crash``
    Raise :class:`~repro.errors.FaultInjectedError` (a retryable,
    transient worker exception).
``hang``
    Sleep ``hang_s`` seconds before proceeding — long enough to trip a
    configured per-point timeout, it simulates a hung worker.
``kill``
    Hard-kill the executing process with ``os._exit`` — in a pool
    worker this breaks the pool (exercising the serial fallback). In
    the main process it degrades to ``crash`` so a serial test run is
    not killed outright.
``torn``
    (``stage="write"`` only) Truncate the just-written chunk file in
    half, simulating a crash mid-write; the store's integrity check
    must quarantine it on next read.

Doctest — a plan round-trips through JSON and fires only on its
declared attempt:

>>> from repro.campaign.faults import FaultPlan
>>> plan = FaultPlan.from_json(
...     '{"schema": "repro-fault-plan-v1", "rules": ['
...     '{"stage": "execute", "kind": "crash",'
...     ' "match": {"n_devices": 8}, "attempts": [1]}]}')
>>> point = {"n_devices": 8, "engine": "analytic"}
>>> plan.match("execute", point, "abc123", attempt=2) is None
True
>>> plan.match("execute", point, "abc123", attempt=1).kind
'crash'
>>> plan.match("execute", {"n_devices": 4}, "abc123", 1) is None
True
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple

from repro.errors import ConfigurationError, FaultInjectedError

#: Environment variable carrying a fault plan: inline JSON (starts with
#: ``{``) or a path to a JSON file. Empty/unset means no injection.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

PLAN_SCHEMA = "repro-fault-plan-v1"

STAGES = ("execute", "write")
KINDS = ("crash", "hang", "kill", "torn")

#: Point fields a rule's ``match`` may constrain (beyond
#: ``hash_prefix``, which matches on the point's content hash).
_MATCH_FIELDS = (
    "n_devices",
    "n_rounds",
    "engine",
    "noise_mode",
    "fading",
    "seed",
)


@dataclass(frozen=True)
class FaultRule:
    """One deterministic fault: where it fires, what it does."""

    stage: str
    kind: str
    match: Mapping[str, object] = field(default_factory=dict)
    attempts: Tuple[int, ...] = (1,)
    hang_s: float = 1.0

    def __post_init__(self) -> None:
        if self.stage not in STAGES:
            raise ConfigurationError(
                f"fault stage must be one of {STAGES}, got {self.stage!r}"
            )
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"fault kind must be one of {KINDS}, got {self.kind!r}"
            )
        if self.kind == "torn" and self.stage != "write":
            raise ConfigurationError("'torn' faults belong to stage 'write'")
        if self.kind != "torn" and self.stage == "write":
            raise ConfigurationError(
                f"stage 'write' only supports 'torn', got {self.kind!r}"
            )
        object.__setattr__(self, "match", dict(self.match))
        object.__setattr__(
            self, "attempts", tuple(int(a) for a in self.attempts)
        )
        unknown = [
            key
            for key in self.match
            if key != "hash_prefix" and key not in _MATCH_FIELDS
        ]
        if unknown:
            raise ConfigurationError(
                f"fault match keys {unknown} are not matchable; "
                f"use hash_prefix or {_MATCH_FIELDS}"
            )

    def applies(
        self,
        stage: str,
        point_fields: Mapping[str, object],
        content_hash: str,
        attempt: int,
    ) -> bool:
        if stage != self.stage or int(attempt) not in self.attempts:
            return False
        for key, wanted in self.match.items():
            if key == "hash_prefix":
                if not content_hash.startswith(str(wanted)):
                    return False
            elif point_fields.get(key) != wanted:
                return False
        return True


def _in_pool_worker() -> bool:
    """True when running inside a spawned/forked worker process."""
    return multiprocessing.parent_process() is not None


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of deterministic fault rules.

    Frozen and picklable so the runner can ship the plan to pool
    workers by value; ``seed`` is reserved for rules that need derived
    randomness (none of the built-in kinds draw — determinism first).
    """

    rules: Tuple[FaultRule, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FaultPlan":
        payload = dict(data)
        schema = payload.pop("schema", PLAN_SCHEMA)
        if schema != PLAN_SCHEMA:
            raise ConfigurationError(
                f"unsupported fault plan schema {schema!r}"
            )
        rules = tuple(
            FaultRule(**dict(rule)) for rule in payload.pop("rules", ())
        )
        seed = int(payload.pop("seed", 0))
        if payload:
            raise ConfigurationError(
                f"unknown fault plan keys {sorted(payload)}"
            )
        return cls(rules=rules, seed=seed)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path) -> "FaultPlan":
        return cls.from_json(Path(path).read_text())

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        """The ambient plan (``REPRO_FAULT_PLAN``), or ``None``.

        Inline JSON when the value starts with ``{``, otherwise a file
        path. This is how fault plans reach subprocess-launched runners
        and the CLI without threading an argument everywhere.
        """
        raw = os.environ.get(FAULT_PLAN_ENV, "").strip()
        if not raw:
            return None
        if raw.startswith("{"):
            return cls.from_json(raw)
        return cls.from_file(raw)

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": PLAN_SCHEMA,
            "seed": self.seed,
            "rules": [
                {
                    "stage": rule.stage,
                    "kind": rule.kind,
                    "match": dict(rule.match),
                    "attempts": list(rule.attempts),
                    "hang_s": rule.hang_s,
                }
                for rule in self.rules
            ],
        }

    # ------------------------------------------------------------------ #
    # firing
    # ------------------------------------------------------------------ #

    def match(
        self,
        stage: str,
        point_fields: Mapping[str, object],
        content_hash: str,
        attempt: int,
    ) -> Optional[FaultRule]:
        """First rule applying at this (stage, point, attempt), if any."""
        for rule in self.rules:
            if rule.applies(stage, point_fields, content_hash, attempt):
                return rule
        return None

    def fire_execute(
        self,
        point_fields: Mapping[str, object],
        content_hash: str,
        attempt: int,
    ) -> None:
        """Inject the matching execute-stage fault, if any.

        Called by the runner (serial path) and the pool worker wrapper
        immediately before the real point computation.
        """
        rule = self.match("execute", point_fields, content_hash, attempt)
        if rule is None:
            return
        if rule.kind == "hang":
            time.sleep(rule.hang_s)
            return
        if rule.kind == "kill":
            if _in_pool_worker():
                # Hard-kill the worker: the parent sees a
                # BrokenProcessPool and must degrade to serial.
                os._exit(86)
            raise FaultInjectedError(
                f"injected kill (degraded to crash in main process) at "
                f"point {content_hash[:12]}… attempt {attempt}"
            )
        raise FaultInjectedError(
            f"injected {rule.kind} at point {content_hash[:12]}… "
            f"attempt {attempt}"
        )

    def fire_write(
        self,
        point_fields: Mapping[str, object],
        content_hash: str,
        path,
        attempt: int,
    ) -> None:
        """Tear the just-written chunk at ``path`` if a rule matches."""
        rule = self.match("write", point_fields, content_hash, attempt)
        if rule is None:
            return
        tear_file(path)


def tear_file(path) -> None:
    """Truncate ``path`` to half its size (simulates a torn write)."""
    path = Path(path)
    data = path.read_bytes()
    path.write_bytes(data[: max(1, len(data) // 2)])


# ---------------------------------------------------------------------- #
# storage-layer fault plans (consumed by storage.FaultyDriver)
# ---------------------------------------------------------------------- #

#: Environment variable carrying a storage fault plan (inline JSON or a
#: path), the storage-layer sibling of ``REPRO_FAULT_PLAN``.
STORAGE_FAULT_PLAN_ENV = "REPRO_STORAGE_FAULT_PLAN"

STORAGE_PLAN_SCHEMA = "repro-storage-fault-plan-v1"

#: Driver operations a storage rule may target (``None``/``"*"`` = any).
STORAGE_OPS = (
    "get",
    "put_atomic",
    "put_exclusive",
    "replace",
    "delete",
    "list",
    "exists",
    "stat",
    "rename",
)

#: ``error``/``persistent`` raise Transient-/PersistentStorageError
#: before the operation runs; ``hang`` sleeps ``hang_s`` then proceeds;
#: ``torn`` (write operations only) lands a truncated payload — raising
#: TransientStorageError unless ``silent`` (the undetected-crash case).
STORAGE_KINDS = ("error", "persistent", "torn", "hang")

#: Network-class kinds, injected *server-side* by the object-store
#: service (:mod:`repro.campaign.objectstore`) rather than by the
#: client's ``FaultyDriver`` — they model the wire, not the disk:
#:
#: * ``refuse`` — drop the connection before any response bytes (a
#:   refused/reset connection);
#: * ``http_error`` — respond ``status`` (default 503) with an
#:   optional ``Retry-After: retry_after_s`` header, without touching
#:   the backend;
#: * ``disconnect`` — *perform* the operation, then truncate the
#:   response mid-body and drop the connection (reads arrive torn;
#:   writes land server-side while the client sees a failure — the
#:   eventually-landing-write case the lease read-back reconciles);
#: * ``delay`` — sleep ``hang_s`` before serving (a slow link);
#: * ``stale_read`` — serve the *previous* committed state of the key
#:   (eventual-visibility emulation; applies to get/exists/stat).
NETWORK_KINDS = ("refuse", "http_error", "disconnect", "delay", "stale_read")

#: Read operations eligible for ``stale_read`` faults.
STORAGE_STALE_OPS = ("get", "exists", "stat")

#: Write operations eligible for ``torn`` faults.
STORAGE_WRITE_OPS = ("put_atomic", "put_exclusive", "replace")


@dataclass(frozen=True)
class StorageFaultRule:
    """One deterministic storage fault: which driver calls, what breaks.

    A rule selects calls by operation (``op``, ``None`` = any) and key
    prefix, then fires either on explicit 1-based *matching-call*
    indices (``calls``) or with seeded per-call probability ``p``
    (derived from the plan seed, the op, the key, and the call index —
    reproducible, no shared randomness). ``max_fires`` bounds the total
    injections so probabilistic plans always let a retried operation
    through eventually.
    """

    kind: str
    op: Optional[str] = None
    key_prefix: str = ""
    calls: Optional[Tuple[int, ...]] = None
    p: Optional[float] = None
    max_fires: Optional[int] = None
    hang_s: float = 0.05
    offset: Optional[int] = None  # torn: bytes kept (None = half)
    silent: bool = False  # torn lands without raising
    status: int = 503  # http_error: response status
    retry_after_s: Optional[float] = None  # http_error: Retry-After

    def __post_init__(self) -> None:
        if self.kind not in STORAGE_KINDS + NETWORK_KINDS:
            raise ConfigurationError(
                f"storage fault kind must be one of "
                f"{STORAGE_KINDS + NETWORK_KINDS}, got {self.kind!r}"
            )
        op = None if self.op in (None, "*") else self.op
        if op is not None and op not in STORAGE_OPS:
            raise ConfigurationError(
                f"storage fault op must be one of "
                f"{STORAGE_OPS} or '*', got {self.op!r}"
            )
        object.__setattr__(self, "op", op)
        if self.kind == "torn" and op is not None and (
            op not in STORAGE_WRITE_OPS
        ):
            raise ConfigurationError(
                f"'torn' storage faults only apply to write operations "
                f"{STORAGE_WRITE_OPS}, got op={op!r}"
            )
        if self.kind == "stale_read" and op is not None and (
            op not in STORAGE_STALE_OPS
        ):
            raise ConfigurationError(
                f"'stale_read' faults only apply to read operations "
                f"{STORAGE_STALE_OPS}, got op={op!r}"
            )
        if self.kind == "http_error" and not (
            400 <= int(self.status) <= 599
        ):
            raise ConfigurationError(
                f"http_error status must be a 4xx/5xx code, "
                f"got {self.status!r}"
            )
        object.__setattr__(self, "status", int(self.status))
        if self.retry_after_s is not None and self.retry_after_s < 0:
            raise ConfigurationError("retry_after_s must be >= 0")
        if self.calls is not None and self.p is not None:
            raise ConfigurationError(
                "a storage fault rule takes 'calls' or 'p', not both"
            )
        if self.p is not None and not 0.0 <= float(self.p) <= 1.0:
            raise ConfigurationError("storage fault p must be in [0, 1]")
        if self.calls is None and self.p is None:
            object.__setattr__(self, "calls", (1,))
        if self.calls is not None:
            object.__setattr__(
                self, "calls", tuple(int(c) for c in self.calls)
            )

    def selects(self, op: str, key: str) -> bool:
        """True when this rule's (op, key-prefix) selector matches."""
        if self.op is not None and self.op != op:
            return False
        return key.startswith(self.key_prefix)


@dataclass(frozen=True)
class StorageFaultPlan:
    """A seeded, declarative set of storage-driver fault rules.

    The storage-layer extension of :class:`FaultPlan`: consumed by
    :class:`repro.campaign.storage.FaultyDriver`, shipped to
    subprocess-launched runners via ``REPRO_STORAGE_FAULT_PLAN``
    (inline JSON or a file path) and to the CLI via
    ``--storage-fault-plan``.

    >>> plan = StorageFaultPlan.from_json(
    ...     '{"schema": "repro-storage-fault-plan-v1", "rules": ['
    ...     '{"op": "put_atomic", "key_prefix": "points/",'
    ...     ' "kind": "torn", "calls": [1]}]}')
    >>> plan.rules[0].selects("put_atomic", "points/abc.json")
    True
    >>> plan.rules[0].selects("get", "points/abc.json")
    False
    >>> StorageFaultPlan.from_json(
    ...     json.dumps(plan.to_dict())) == plan  # JSON round trip
    True
    """

    rules: Tuple[StorageFaultRule, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "StorageFaultPlan":
        payload = dict(data)
        schema = payload.pop("schema", STORAGE_PLAN_SCHEMA)
        if schema != STORAGE_PLAN_SCHEMA:
            raise ConfigurationError(
                f"unsupported storage fault plan schema {schema!r}"
            )
        rules = tuple(
            StorageFaultRule(**dict(rule))
            for rule in payload.pop("rules", ())
        )
        seed = int(payload.pop("seed", 0))
        if payload:
            raise ConfigurationError(
                f"unknown storage fault plan keys {sorted(payload)}"
            )
        return cls(rules=rules, seed=seed)

    @classmethod
    def from_json(cls, text: str) -> "StorageFaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path) -> "StorageFaultPlan":
        return cls.from_json(Path(path).read_text())

    @classmethod
    def from_env(cls) -> Optional["StorageFaultPlan"]:
        """The ambient plan (``REPRO_STORAGE_FAULT_PLAN``), or ``None``."""
        raw = os.environ.get(STORAGE_FAULT_PLAN_ENV, "").strip()
        if not raw:
            return None
        if raw.startswith("{"):
            return cls.from_json(raw)
        return cls.from_file(raw)

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": STORAGE_PLAN_SCHEMA,
            "seed": self.seed,
            "rules": [
                {
                    "kind": rule.kind,
                    "op": rule.op,
                    "key_prefix": rule.key_prefix,
                    "calls": (
                        list(rule.calls) if rule.calls is not None else None
                    ),
                    "p": rule.p,
                    "max_fires": rule.max_fires,
                    "hang_s": rule.hang_s,
                    "offset": rule.offset,
                    "silent": rule.silent,
                    "status": rule.status,
                    "retry_after_s": rule.retry_after_s,
                }
                for rule in self.rules
            ],
        }

    def unit(self, op: str, key: str, call_index: int) -> float:
        """Seeded uniform draw in [0, 1) for one (op, key, call)."""
        import hashlib

        digest = hashlib.sha256(
            f"{self.seed}:{op}:{key}:{call_index}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2.0**64

    def has_kind(self, *kinds: str) -> bool:
        """True when any rule carries one of ``kinds``."""
        return any(rule.kind in kinds for rule in self.rules)


class StorageFaultSelector:
    """Stateful, thread-safe rule selection over one storage fault plan.

    Shared by the client-side :class:`~repro.campaign.storage.
    FaultyDriver` and the object-store service's network injector
    (:mod:`repro.campaign.objectstore`): per-rule *matching-call*
    counters advance deterministically, so a given operation sequence
    reproduces the same injections wherever the plan is consulted.

    ``kinds`` restricts which rule kinds this consumer may fire — the
    driver ignores network-class rules, the HTTP service ignores
    storage-class ones — and ignored rules do not advance their
    counters here, so one plan can carry both classes without the two
    consumers perturbing each other's call indices.
    """

    def __init__(
        self,
        plan: "StorageFaultPlan",
        kinds: Optional[Tuple[str, ...]] = None,
    ) -> None:
        self._plan = plan
        self._kinds = tuple(kinds) if kinds is not None else None
        self._lock = threading.Lock()
        self._seen: Dict[int, int] = {}
        self._fired: Dict[int, int] = {}
        self._n_injected = 0

    @property
    def plan(self) -> "StorageFaultPlan":
        return self._plan

    @property
    def n_injected(self) -> int:
        with self._lock:
            return self._n_injected

    def consult(self, op: str, key: str) -> Optional[StorageFaultRule]:
        """First eligible rule firing on this call, advancing counters."""
        with self._lock:
            chosen = None
            for index, rule in enumerate(self._plan.rules):
                if self._kinds is not None and rule.kind not in self._kinds:
                    continue
                if not rule.selects(op, key):
                    continue
                self._seen[index] = n = self._seen.get(index, 0) + 1
                if chosen is not None:
                    continue  # still count later rules' matches
                if (
                    rule.max_fires is not None
                    and self._fired.get(index, 0) >= rule.max_fires
                ):
                    continue
                if rule.calls is not None:
                    fires = n in rule.calls
                else:
                    fires = self._plan.unit(op, key, n) < float(rule.p)
                if fires:
                    self._fired[index] = self._fired.get(index, 0) + 1
                    self._n_injected += 1
                    chosen = rule
            return chosen


__all__ = [
    "FAULT_PLAN_ENV",
    "PLAN_SCHEMA",
    "NETWORK_KINDS",
    "STORAGE_FAULT_PLAN_ENV",
    "STORAGE_KINDS",
    "STORAGE_OPS",
    "STORAGE_PLAN_SCHEMA",
    "STORAGE_STALE_OPS",
    "STORAGE_WRITE_OPS",
    "FaultPlan",
    "FaultRule",
    "StorageFaultPlan",
    "StorageFaultRule",
    "StorageFaultSelector",
    "tear_file",
]
