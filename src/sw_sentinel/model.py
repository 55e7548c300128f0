"""Domain model of the service worker subsystem.

Covers origins, scopes, the registration registry, the lifecycle state
machine and capability gating: what a worker does from registration through
activation, the events it handles and its termination. Everything here is a
plain single-writer value; all mutation goes through the operations on
:class:`SwRegistry` / :func:`apply_lifecycle_event`, the only code that moves
a worker's two lifecycle fields, for the registry and the policy engine
alike: its registration's ``phase`` and its ``process``.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from operator import attrgetter
from typing import NamedTuple, Optional
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


# The port a scheme implies, which an origin and a CSP host source may omit.
DEFAULT_PORTS = {"https": 443, "http": 80}


class Origin(NamedTuple):
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
        host = f"[{self.host}]" if ":" in self.host else self.host  # an IPv6 address
        if self.port is None:
            return f"{self.scheme}://{host}"
        return f"{self.scheme}://{host}:{self.port}"


# Traces repeat a few origins on every line, so parsed origins are kept.
# Origin is a tuple, so every caller may share one instance; an exception
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
    if port == DEFAULT_PORTS.get(parts.scheme):
        port = None
    return cls(parts.scheme.lower(), host.lower(), port)


class Scope(NamedTuple("Scope", [("path_prefix", str)])):
    """A URL path prefix controlling which pages a worker may handle.

    Normalized to always end with "/" so that prefix matching is
    segment-aligned: "/te" can never match "/test/x".
    """

    __slots__ = ()

    def __new__(cls, path_prefix: str) -> "Scope":
        path = path_prefix
        if not path.startswith("/"):
            raise InvalidScope(f"scope must start with '/': {path!r}")
        if ".." in path.split("/"):
            raise InvalidScope(f"scope may not contain '..': {path!r}")
        if "?" in path or "#" in path:
            raise InvalidScope(f"scope may not carry query/fragment: {path!r}")
        return super().__new__(cls, path if path.endswith("/") else path + "/")

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
    TERMINATED = "terminated"
    DEREGISTERED = "deregistered"


# States from which a worker can control pages / receive events.
CONTROLLING_STATES = frozenset({SwState.ACTIVATED, SwState.RUNNING})

# The members the lifecycle compares with, bound once: a member looked up on
# an Enum class costs 0.1 to 0.25 us in CPython 3.11. The tuples are searched
# by identity, with no call to the Enum's Python __hash__.
_INSTALLING, _WAITING, _ACTIVATED = SwState.INSTALLING, SwState.WAITING, SwState.ACTIVATED
_RUNNING, _TERMINATED, _DEREGISTERED = SwState.RUNNING, SwState.TERMINATED, SwState.DEREGISTERED
# Each process row: the process states it moves from (None: never run), and to.
_PROCESS_ROWS = {"event_arrived": ((None, _TERMINATED), _RUNNING),
                 "terminate": ((None, _RUNNING), _TERMINATED)}
LIFECYCLE_EVENTS = frozenset({"register", "install_done", "activate", "update_check",
                              "update_found", "deregister", *_PROCESS_ROWS})


class SwRecord:
    """One registered service worker, in two lifecycles that only this module
    moves: its registration's ``phase`` (installing, waiting, activated or
    deregistered) and its ``process`` (None until it first runs, then running
    or terminated; an event wakes a terminated one). As the spec's
    registration keeps a waiting or active worker beside an installing one,
    ``predecessor`` holds the older version's phase. ``update_checked`` marks
    an update check the worker ran, ``update_refused`` one refused to it.
    ``state`` derives the one value both replace, and ``SwRecord(state=...)``
    sets them from it.

    ``capabilities is None`` means the registration carried no restriction:
    the worker may use every capability. ``version`` increments on each
    update so self-update loops stay attributable to one logical worker.
    """

    def __init__(self, sw_id: str, origin: Origin, scope: Scope, script_url: str,
                 state: Optional[SwState] = None,
                 capabilities: Optional[frozenset[Capability]] = None,
                 push_subscribed: bool = False) -> None:
        self.sw_id, self.origin, self.scope, self.script_url = sw_id, origin, scope, script_url
        self.capabilities, self.push_subscribed = capabilities, push_subscribed
        self.silent_push_count, self.version = 0, 1
        self.phase, self.predecessor, self.process = _INSTALLING, None, None
        self.update_checked = self.update_refused = False
        if state in (_RUNNING, _TERMINATED):
            self.phase, self.process = _ACTIVATED, state
        elif state is not None:
            self.phase = state

    @property
    def state(self) -> SwState:
        """The one value both lifecycles replace: a deregistered record's
        phase, else the process once it has run, else the phase, or the
        predecessor's while a new version installs."""
        if self.process is None or self.phase is _DEREGISTERED:
            return self.predecessor or self.phase
        return self.process


def check_capability(record: SwRecord, requested: Capability) -> bool:
    """True iff the record is unrestricted or holds the requested capability."""
    return record.capabilities is None or requested in record.capabilities


def lifecycle_allows(record: SwRecord, event_kind: str) -> bool:
    """Whether ``event_kind`` may happen to the record now. An install needs
    an installing version and an activation a waiting one, whether or not the
    process runs; only a running worker calls update(); an update found may
    not answer a refused check alone. A deregistered record never moves."""
    phase, process = record.phase, record.process
    if phase is _DEREGISTERED or event_kind not in LIFECYCLE_EVENTS:
        return False
    if event_kind in _PROCESS_ROWS:
        return process in _PROCESS_ROWS[event_kind][0]
    if event_kind == "install_done":
        return phase is _INSTALLING
    if event_kind == "activate":
        return _WAITING in (phase, record.predecessor)
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
    elif event_kind == "activate":
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


class SwRegistry:
    """Registration registry: at most one worker per (origin, scope). The
    policy engine keeps one too, and admits each new worker by ``admit``."""

    def __init__(self) -> None:
        self._records: dict[tuple[str, str], SwRecord] = {}
        self._counter = 0

    def records(self) -> list[SwRecord]:
        return list(self._records.values())

    def admit(self, record: SwRecord) -> Optional[ModelError]:
        """The Register rules of the Service Workers spec: an ``https`` origin,
        a script hosted on it, and a scope that no record that is not
        deregistered holds. None when admitted, and the record then holds its
        scope; else the error, and the registry is unchanged."""
        origin = record.origin
        if not origin.is_secure:
            return InsecureOrigin(f"{origin} may not register a service worker")
        script_parts = urlsplit(record.script_url)
        if (script_parts.scheme and script_parts.hostname
                and Origin.parse(f"{script_parts.scheme}://{script_parts.netloc}") != origin):
            return CrossOriginScript(f"{record.script_url} is not hosted on {origin}")
        key = (str(origin), record.scope.path_prefix)
        holder = self._records.get(key)
        if holder is not None and holder.phase is not _DEREGISTERED:
            return DuplicateScope(f"worker already registered at {key}")
        self._records[key] = record
        return None

    def register_sw(self, origin: Origin, scope: Optional[Scope], script_url: str,
                    capabilities: Optional[frozenset[Capability]] = None,
                    has_existing_controller: bool = False) -> SwRecord:
        """Register a worker; activates immediately unless a controller exists.
        With no scope, the worker's scope is its script's directory.

        Raises InsecureOrigin / CrossOriginScript / DuplicateScope.
        """
        if scope is None:
            scope = Scope((urlsplit(script_url).path or "/").rsplit("/", 1)[0] + "/")
        record = SwRecord(sw_id=f"sw-{self._counter + 1}", origin=origin, scope=scope,
                          script_url=script_url, capabilities=capabilities)
        error = self.admit(record)
        if error is not None:
            raise error
        self._counter += 1
        apply_lifecycle_event(record, "install_done")
        if not has_existing_controller:
            apply_lifecycle_event(record, "activate")
        return record

    def match_scope(self, origin: Origin, page_path: str) -> Optional[SwRecord]:
        """The controlling worker for a page path: longest matching scope wins.
        Every scope that matches is a prefix of the path, and an origin holds
        each scope once, so the longest is the greatest."""
        return max((record for record in self._records.values() if record.origin == origin
                    and record.state in CONTROLLING_STATES and record.scope.contains(page_path)),
                   key=attrgetter("scope.path_prefix"), default=None)
