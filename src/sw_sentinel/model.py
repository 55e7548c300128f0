"""Domain model of the service worker subsystem.

Covers origins, scopes, the registration registry, the lifecycle state
machine, capability gating, and the scope-keyed cache namespace. Everything
here is a plain single-writer value; all mutation goes through the operations
on :class:`SwRegistry` / :func:`apply_lifecycle_event`, the only code that
assigns a worker's ``state``, for the registry and the policy engine alike.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional
from urllib.parse import urlsplit


class SwSentinelError(Exception):
    """Base of every exception the package defines."""


class ModelError(SwSentinelError):
    """Base for domain-model failures."""


class InsecureOrigin(ModelError):
    """Registration attempted from a non-https origin."""


class CrossOriginScript(ModelError):
    """Worker script is not hosted under the registering origin."""


class DuplicateScope(ModelError):
    """A worker is already registered at this (origin, scope)."""


class IllegalTransition(ModelError):
    """Lifecycle event not allowed from the current state."""


class InvalidScope(ModelError):
    """Scope path failed normalization rules."""


_DEFAULT_PORTS = {"https": 443, "http": 80}


@dataclass(frozen=True)
class Origin:
    """A web origin. Equality is component-wise on (scheme, host, port).

    Ports equal to the scheme default are normalized away so that
    ``https://a.example`` and ``https://a.example:443`` compare equal.
    """

    scheme: str
    host: str
    port: Optional[int] = None

    @classmethod
    def parse(cls, text: str) -> "Origin":
        """Parse ``scheme://host[:port]``; raises ModelError otherwise."""
        return _parse_origin(cls, text)

    @property
    def is_secure(self) -> bool:
        return self.scheme == "https"

    def __str__(self) -> str:
        if self.port is None:
            return f"{self.scheme}://{self.host}"
        return f"{self.scheme}://{self.host}:{self.port}"


# Traces repeat a few origins on every line, so parsed origins are kept.
# Origin is frozen, so every caller may share one instance; an exception
# leaves the cache untouched, so a bad origin raises on every call.
@lru_cache(maxsize=4096)
def _parse_origin(cls: type[Origin], text: str) -> Origin:
    try:
        parts = urlsplit(text if "://" in text else "//" + text)
        host = parts.hostname
        port = parts.port
    except ValueError as exc:  # bad brackets, or a port out of range or not a number
        raise ModelError(f"not an origin: {text!r}: {exc}") from exc
    if not parts.scheme or not host:
        raise ModelError(f"not an origin: {text!r}")
    if port == _DEFAULT_PORTS.get(parts.scheme):
        port = None
    return cls(parts.scheme.lower(), host.lower(), port)


@dataclass(frozen=True)
class Scope:
    """A URL path prefix controlling which pages a worker may handle.

    Normalized to always end with "/" so that prefix matching is
    segment-aligned: "/te" can never match "/test/x".
    """

    path_prefix: str

    def __post_init__(self) -> None:
        path = self.path_prefix
        if not path.startswith("/"):
            raise InvalidScope(f"scope must start with '/': {path!r}")
        if ".." in path.split("/"):
            raise InvalidScope(f"scope may not contain '..': {path!r}")
        if "?" in path or "#" in path:
            raise InvalidScope(f"scope may not carry query/fragment: {path!r}")
        if not path.endswith("/"):
            object.__setattr__(self, "path_prefix", path + "/")

    def contains(self, page_path: str) -> bool:
        """True when page_path lies under this scope (segment-aligned)."""
        return page_path.startswith(self.path_prefix)

    def __str__(self) -> str:
        return self.path_prefix


class Capability(Enum):
    """APIs / event sources a worker may be restricted to at registration."""

    PUSH = "push"
    NOTIFICATIONS = "notifications"
    CACHE = "cache"
    COOKIES = "cookies"
    FETCH_INTERCEPT = "fetch_intercept"
    SYNC = "sync"
    PERIODIC_SYNC = "periodicsync"


class SwState(Enum):
    INSTALLING = "installing"
    WAITING = "waiting"
    ACTIVATED = "activated"
    RUNNING = "running"
    IDLE = "idle"
    TERMINATED = "terminated"
    DEREGISTERED = "deregistered"


# States from which a worker can control pages / receive events.
CONTROLLING_STATES = frozenset({SwState.ACTIVATED, SwState.RUNNING, SwState.IDLE})

# The members apply_lifecycle_event compares with, bound once: a member looked
# up on an Enum class costs 0.1 to 0.25 us in CPython 3.11. The tuples are
# searched by identity, with no call to the Enum's Python __hash__.
_INSTALLING, _WAITING, _ACTIVATED = SwState.INSTALLING, SwState.WAITING, SwState.ACTIVATED
_RUNNING, _IDLE = SwState.RUNNING, SwState.IDLE
_TERMINATED, _DEREGISTERED = SwState.TERMINATED, SwState.DEREGISTERED
_ACTIVATE_FROM = (_INSTALLING, _WAITING)
_WAKE_FROM = (_INSTALLING, _ACTIVATED, _IDLE, _TERMINATED)
_STOP_FROM = (_RUNNING, _IDLE, _ACTIVATED, _INSTALLING, _WAITING)

LIFECYCLE_EVENTS = frozenset(
    {
        "install_done",
        "skip_waiting",
        "predecessor_gone",
        "activate",
        "event_arrived",
        "event_done",
        "idle_timeout",
        "hard_timeout",
        "terminate",
        "deregister",
        "update_found",
    }
)


@dataclass
class SwRecord:
    """One registered service worker.

    ``capabilities is None`` means the registration carried no restriction:
    the worker may use every capability. ``version`` increments on each
    update so self-update loops stay attributable to one logical worker.
    """

    sw_id: str
    origin: Origin
    scope: Scope
    script_url: str
    state: SwState = SwState.INSTALLING
    capabilities: Optional[frozenset[Capability]] = None
    push_subscribed: bool = False
    silent_push_count: int = 0
    severity_level: int = 0
    version: int = 1
    has_pending_predecessor: bool = False

    @property
    def unrestricted(self) -> bool:
        return self.capabilities is None


def check_capability(record: SwRecord, requested: Capability) -> bool:
    """True iff the record is unrestricted or holds the requested capability."""
    return record.capabilities is None or requested in record.capabilities


def apply_lifecycle_event(record: SwRecord, event_kind: str) -> SwState:
    """Advance the lifecycle state machine; raises IllegalTransition otherwise.

    Terminated workers may be woken again by ``event_arrived`` (a push or
    sync restarts the worker process); Deregistered is absorbing. Installing
    workers run on it too: their install handler, or a first push, runs them.
    """
    if event_kind not in LIFECYCLE_EVENTS:
        raise IllegalTransition(f"unknown lifecycle event {event_kind!r}")
    state = record.state

    if state is _DEREGISTERED:
        raise IllegalTransition("deregistered workers never transition again")

    if event_kind == "deregister":
        record.state = _DEREGISTERED
    elif event_kind == "update_found":
        record.version += 1
        record.state = _INSTALLING
    elif event_kind == "install_done" and state is _INSTALLING:
        record.state = _WAITING if record.has_pending_predecessor else _ACTIVATED
    elif event_kind == "activate" and state in _ACTIVATE_FROM:
        record.state = _ACTIVATED
    elif event_kind in ("skip_waiting", "predecessor_gone") and state is _WAITING:
        record.has_pending_predecessor = False
        record.state = _ACTIVATED
    elif event_kind == "event_arrived" and state in _WAKE_FROM:
        record.state = _RUNNING
    elif event_kind == "event_done" and state is _RUNNING:
        record.state = _IDLE
    elif event_kind == "idle_timeout" and state is _IDLE:
        record.state = _TERMINATED
    elif event_kind in ("hard_timeout", "terminate") and state in _STOP_FROM:
        record.state = _TERMINATED
    else:
        raise IllegalTransition(f"{event_kind} not legal from {state.value}")
    return record.state


def _script_dir_scope(script_url: str) -> Scope:
    path = urlsplit(script_url).path or "/"
    directory = path.rsplit("/", 1)[0] + "/"
    return Scope(directory)


class SwRegistry:
    """Registration registry: at most one worker per (origin, scope)."""

    def __init__(self) -> None:
        self._records: dict[tuple[str, str], SwRecord] = {}
        self._counter = 0

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> list[SwRecord]:
        return list(self._records.values())

    def get(self, origin: Origin, scope: Scope) -> Optional[SwRecord]:
        return self._records.get((str(origin), scope.path_prefix))

    def register_sw(
        self,
        origin: Origin,
        scope: Optional[Scope],
        script_url: str,
        capabilities: Optional[frozenset[Capability]] = None,
        has_existing_controller: bool = False,
        sw_id: Optional[str] = None,
    ) -> SwRecord:
        """Register a worker; activates immediately unless a controller exists.

        Raises InsecureOrigin / CrossOriginScript / DuplicateScope.
        """
        if not origin.is_secure:
            raise InsecureOrigin(f"{origin} may not register a service worker")
        script_parts = urlsplit(script_url)
        if script_parts.scheme and script_parts.hostname:
            script_origin = Origin.parse(
                f"{script_parts.scheme}://{script_parts.netloc}"
            )
            if script_origin != origin:
                raise CrossOriginScript(f"{script_url} is not hosted on {origin}")
        if scope is None:
            scope = _script_dir_scope(script_url)
        key = (str(origin), scope.path_prefix)
        if key in self._records:
            raise DuplicateScope(f"worker already registered at {key}")

        self._counter += 1
        record = SwRecord(
            sw_id=sw_id or f"sw-{self._counter}",
            origin=origin,
            scope=scope,
            script_url=script_url,
            capabilities=capabilities,
            has_pending_predecessor=has_existing_controller,
        )
        apply_lifecycle_event(record, "install_done")
        self._records[key] = record
        return record

    def match_scope(self, origin: Origin, page_path: str) -> Optional[SwRecord]:
        """The controlling worker for a page path: longest matching scope wins."""
        best: Optional[SwRecord] = None
        for record in self._records.values():
            if record.origin != origin or record.state not in CONTROLLING_STATES:
                continue
            if not record.scope.contains(page_path):
                continue
            if best is None or len(record.scope.path_prefix) > len(
                best.scope.path_prefix
            ):
                best = record
        return best

    def deregister(self, record: SwRecord) -> None:
        apply_lifecycle_event(record, "deregister")
        self._records.pop((str(record.origin), record.scope.path_prefix), None)


class CacheNamespace:
    """Cache entries keyed by (origin, scope, resource URL); payloads stored
    as digests only. Isolation mode confines a worker to its own scope's keys;
    legacy mode allows any same-origin key."""

    def __init__(self) -> None:
        self.entries: dict[tuple[str, str, str], str] = {}

    @staticmethod
    def access(
        record: SwRecord,
        key_origin: Origin,
        key_scope: Scope,
        mode: str,
        isolation: str = "legacy",
    ) -> bool:
        """Whether the record may read/write a key under (key_origin, key_scope)."""
        if mode not in ("read", "write"):
            raise ModelError(f"unknown cache mode {mode!r}")
        if isolation not in ("legacy", "isolated"):
            raise ModelError(f"unknown isolation mode {isolation!r}")
        if not check_capability(record, Capability.CACHE):
            return False
        if key_origin != record.origin:
            return False
        if isolation == "isolated":
            return key_scope.path_prefix == record.scope.path_prefix
        return True

    def cache_access(
        self,
        record: SwRecord,
        key_scope: Scope,
        resource: str,
        mode: str,
        isolation: str = "legacy",
        payload: bytes = b"",
    ) -> bool:
        """Attempt a cache operation; returns whether it was allowed."""
        allowed = self.access(record, record.origin, key_scope, mode, isolation)
        if allowed and mode == "write":
            digest = hashlib.sha256(payload).hexdigest()
            self.entries[(str(record.origin), key_scope.path_prefix, resource)] = digest
        return allowed
