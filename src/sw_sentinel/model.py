"""Domain model of the service worker subsystem.

Covers origins, scopes, the registration registry, the lifecycle state
machine, capability gating, and the scope-keyed cache namespace. Everything
here is a plain single-writer value; all mutation goes through the operations
on :class:`SwRegistry` / :func:`apply_lifecycle_event`, the only code that
moves a worker's two lifecycle fields, for the registry and the policy engine
alike: its registration's ``phase`` and its ``process``.
"""

from __future__ import annotations

import hashlib
from dataclasses import InitVar, dataclass
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

# The members the lifecycle compares with, bound once: a member looked up on
# an Enum class costs 0.1 to 0.25 us in CPython 3.11. The tuples are searched
# by identity, with no call to the Enum's Python __hash__.
_INSTALLING, _WAITING, _ACTIVATED = SwState.INSTALLING, SwState.WAITING, SwState.ACTIVATED
_RUNNING, _IDLE = SwState.RUNNING, SwState.IDLE
_TERMINATED, _DEREGISTERED = SwState.TERMINATED, SwState.DEREGISTERED
_ACTIVATE_ROWS = ("activate", "skip_waiting", "predecessor_gone")
# Each process row: the process states it moves from (None: never run), and to.
_STOP_ROW = ((None, _RUNNING, _IDLE), _TERMINATED)
_PROCESS_ROWS = {"event_arrived": ((None, _IDLE, _TERMINATED), _RUNNING),
                 "event_done": ((_RUNNING,), _IDLE), "idle_timeout": ((_IDLE,), _TERMINATED),
                 "hard_timeout": _STOP_ROW, "terminate": _STOP_ROW}
LIFECYCLE_EVENTS = frozenset({"register", "install_done", "update_check", "update_found",
                              "deregister", *_ACTIVATE_ROWS, *_PROCESS_ROWS})


@dataclass
class SwRecord:
    """One registered service worker, in two lifecycles that only this module
    moves: its registration's ``phase`` (installing, waiting, activated or
    deregistered) and its ``process`` (None until it first runs, then
    running, idle or terminated). As the spec's registration keeps a waiting
    or active worker beside an installing one, ``predecessor`` holds the
    older version's phase. ``update_checked`` marks an update check the
    worker ran, ``update_refused`` one refused to it. ``state`` derives the
    one value both replace, and ``SwRecord(state=...)`` sets them from it.

    ``capabilities is None`` means the registration carried no restriction:
    the worker may use every capability. ``version`` increments on each
    update so self-update loops stay attributable to one logical worker.
    """

    sw_id: str
    origin: Origin
    scope: Scope
    script_url: str
    state: InitVar[Optional[SwState]] = None
    capabilities: Optional[frozenset[Capability]] = None
    push_subscribed: bool = False
    silent_push_count: int = 0
    version: int = 1
    phase: SwState = _INSTALLING
    predecessor: Optional[SwState] = None
    process: Optional[SwState] = None
    update_checked: bool = False
    update_refused: bool = False

    def __post_init__(self, state: Optional[SwState]) -> None:
        if state in (_RUNNING, _IDLE, _TERMINATED):
            self.phase, self.process = _ACTIVATED, state
        elif state is not None:
            self.phase = state

    @property
    def unrestricted(self) -> bool:
        return self.capabilities is None


def _state(record: SwRecord) -> SwState:
    """The one value both lifecycles replace: a deregistered record's phase,
    else the process once it has run, else the phase, or the predecessor's
    while a new version installs."""
    if record.process is None or record.phase is _DEREGISTERED:
        return record.predecessor or record.phase
    return record.process


# ``state`` is an init-only argument as well, so its read-only view is set here.
SwRecord.state = property(_state)


def check_capability(record: SwRecord, requested: Capability) -> bool:
    """True iff the record is unrestricted or holds the requested capability."""
    return record.capabilities is None or requested in record.capabilities


def lifecycle_allows(record: SwRecord, event_kind: str) -> bool:
    """Whether ``event_kind`` may happen to the record now. An install needs
    an installing version and an activation a waiting one, unless the process
    runs; only a running worker calls update(); an update found may not
    answer a refused check alone. A deregistered record never moves."""
    phase, process = record.phase, record.process
    if phase is _DEREGISTERED or event_kind not in LIFECYCLE_EVENTS:
        return False
    if event_kind in _PROCESS_ROWS:
        return process in _PROCESS_ROWS[event_kind][0]
    if event_kind == "install_done":
        return phase is _INSTALLING or process is _RUNNING
    if event_kind in _ACTIVATE_ROWS:
        return _WAITING in (phase, record.predecessor) or process is _RUNNING
    if event_kind == "update_check":
        return process is _RUNNING
    if event_kind == "update_found":
        return record.update_checked or not record.update_refused
    return True  # register, deregister


def apply_lifecycle_event(record: SwRecord, event_kind: str, force: bool = False) -> SwState:
    """Move the record by the row for ``event_kind`` and return the phase or
    process state it moved to; raises IllegalTransition where
    ``lifecycle_allows`` says no, unless ``force`` takes a recorded event as
    fact. Forced or not, a deregistered record never moves again.

    A new version (``register``, ``update_found``) installs beside the one it
    will replace, ``install_done`` makes it the waiting version and an
    activation the active one. ``event_arrived`` wakes a terminated process.
    """
    phase = record.phase
    if not lifecycle_allows(record, event_kind) and (
            not force or phase is _DEREGISTERED or event_kind not in LIFECYCLE_EVENTS):
        raise IllegalTransition(f"{event_kind} not legal from {record.state.value}")
    if event_kind in _PROCESS_ROWS:
        record.process = _PROCESS_ROWS[event_kind][1]
        return record.process
    if event_kind in ("deregister", "install_done"):
        record.phase = _DEREGISTERED if event_kind == "deregister" else _WAITING
        record.predecessor = None
    elif event_kind in _ACTIVATE_ROWS:
        if phase is _WAITING:
            record.phase = _ACTIVATED
        elif record.predecessor is _WAITING:
            record.predecessor = _ACTIVATED
    elif event_kind == "update_check":
        record.update_checked = True
    else:  # register, update_found
        if event_kind == "update_found":
            record.version += 1
            record.update_checked = False
        if phase is not _INSTALLING:
            record.phase, record.predecessor = _INSTALLING, phase
    return record.phase


def refuse_lifecycle_event(record: SwRecord, event_kind: str) -> None:
    """Note a recorded event the browser refused: a refused update check voids
    the update found that would answer it, and refusing that one spends it."""
    if event_kind in ("update_check", "update_found"):
        record.update_refused = event_kind == "update_check"


def _script_dir_scope(script_url: str) -> Scope:
    path = urlsplit(script_url).path or "/"
    directory = path.rsplit("/", 1)[0] + "/"
    return Scope(directory)


class SwRegistry:
    """Registration registry: at most one worker per (origin, scope)."""

    def __init__(self) -> None:
        self._records: dict[tuple[str, str], SwRecord] = {}
        self._counter = 0

    def records(self) -> list[SwRecord]:
        return list(self._records.values())

    def register_sw(
        self,
        origin: Origin,
        scope: Optional[Scope],
        script_url: str,
        capabilities: Optional[frozenset[Capability]] = None,
        has_existing_controller: bool = False,
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
            sw_id=f"sw-{self._counter}",
            origin=origin,
            scope=scope,
            script_url=script_url,
            capabilities=capabilities,
        )
        apply_lifecycle_event(record, "install_done")
        if not has_existing_controller:
            apply_lifecycle_event(record, "activate")
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
