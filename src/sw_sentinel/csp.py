"""Content-Security-Policy handling for service worker script responses.

Implements the fail-safe default ``script-src 'self'`` for worker scripts,
importScripts origin checks, and eval gating. Deliberately does NOT fall
back from script-src to default-src: the default exists to close the
unrestricted-import hole, and inheriting default-src would reopen it.
"""

from __future__ import annotations

import logging
import re
from typing import Any, Iterable, Mapping, NamedTuple, Optional
from urllib.parse import SplitResult, urljoin, urlsplit

from .model import DEFAULT_PORTS, Origin

logger = logging.getLogger(__name__)

SELF = "'self'"
UNSAFE_EVAL = "'unsafe-eval'"

# Valid CSP keywords: 'self' and 'unsafe-eval' are read, any other is kept
# inert and never matches (nonces/hashes are out of scope).
_INERT_KEYWORD_RE = re.compile(r"^'[a-z0-9+/=-]+'$", re.IGNORECASE)
_HOST_SOURCE_RE = re.compile(
    r"^(?:(?P<scheme>[a-z][a-z0-9+.-]*)://)?"
    r"(?P<host>(?:\*\.)?[a-z0-9-]+(?:\.[a-z0-9-]+)*|\*)"
    r"(?::(?P<port>\d+|\*))?$",
    re.IGNORECASE,
)


class CspPolicy:
    """Parsed directive map. Duplicate directives keep the first occurrence."""

    def __init__(self) -> None:
        self.directives: dict[str, tuple[str, ...]] = {}
        self.warnings: list[str] = []

    def script_src(self) -> Optional[tuple[str, ...]]:
        return self.directives.get("script-src")


class CspVerdict(NamedTuple):
    allowed: bool
    rule: str


def _normalize_source(token: str) -> Optional[str]:
    """Canonical form of a source token, or None when it is malformed."""
    if _INERT_KEYWORD_RE.match(token) or _HOST_SOURCE_RE.match(token):
        return token.lower()
    return None


def parse_csp(header_value: str) -> CspPolicy:
    """Parse a CSP header value; malformed source tokens are skipped with a
    warning rather than failing the whole header (real headers are messy)."""
    policy = CspPolicy()
    for raw in header_value.split(";"):
        tokens = raw.split()
        if not tokens:
            continue
        name = tokens[0].lower()
        sources = []
        for token in tokens[1:]:
            normalized = _normalize_source(token)
            if normalized is None:
                message = f"malformed source {token!r} in directive {name!r}; skipped"
                policy.warnings.append(message)
                logger.warning("%s", message)
                continue
            sources.append(normalized)
        if name not in policy.directives:  # first occurrence wins
            policy.directives[name] = tuple(sources)
    return policy


def effective_script_src(policy: Optional[CspPolicy]) -> tuple[str, ...]:
    """The script-src actually enforced on a worker script response.

    A missing header, or a header without script-src, yields 'self'.
    default-src is intentionally not consulted.
    """
    sources = None if policy is None else policy.script_src()
    return (SELF,) if sources is None else sources


def _host_matches(pattern: str, host: str) -> bool:
    if pattern == "*":
        return True
    if pattern.startswith("*."):
        suffix = pattern[1:]  # ".example.com"
        return host.endswith(suffix) and len(host) > len(suffix)
    return host == pattern


def host_source_matches(source: str, parts: SplitResult) -> bool:
    """Whether a host-source token allows the URL split into ``parts``.

    Scheme-less sources assume https (worker scripts are https-only). A
    source without a port matches the scheme-default port only.
    """
    match = _HOST_SOURCE_RE.match(source)
    if not match:
        return False
    if not parts.hostname:
        return False
    scheme = (parts.scheme or "https").lower()
    want_scheme = (match.group("scheme") or "https").lower()
    if scheme != want_scheme:
        return False
    if not _host_matches(match.group("host").lower(), parts.hostname.lower()):
        return False
    url_port = parts.port or DEFAULT_PORTS.get(scheme)
    want_port = match.group("port")
    if want_port == "*":
        return True
    if want_port is None:
        return url_port == DEFAULT_PORTS.get(want_scheme)
    return url_port == int(want_port)


def check_import(
    policy: Optional[CspPolicy], sw_origin: Origin | str, import_url: str
) -> CspVerdict:
    """Verdict for an importScripts URL against the effective script-src.

    The URL resolves against the worker's origin, which changes only a URL
    that lacks a scheme or a host. It is same-origin only when the resolved
    URL has a host and its origin is the worker's: a ``data:``, ``blob:`` or
    ``javascript:`` URL never is."""
    if isinstance(sw_origin, str):
        sw_origin = Origin.parse(sw_origin)
    parts = urlsplit(import_url)
    if not (parts.scheme and parts.netloc):
        parts = urlsplit(urljoin(f"{sw_origin}/", import_url))
    same_origin = bool(parts.hostname) and (
        Origin.parse(f"{parts.scheme}://{parts.netloc}") == sw_origin)
    for source in effective_script_src(policy):
        if source == SELF and same_origin:
            return CspVerdict(True, SELF)
        if source.startswith("'"):
            continue
        if host_source_matches(source, parts):
            return CspVerdict(True, source)
    return CspVerdict(False, f"script-src has no source allowing {import_url}")


def check_eval(policy: Optional[CspPolicy]) -> CspVerdict:
    """eval() is denied unless 'unsafe-eval' appears in the effective script-src."""
    if UNSAFE_EVAL in effective_script_src(policy):
        return CspVerdict(True, UNSAFE_EVAL)
    return CspVerdict(False, "script-src lacks 'unsafe-eval'")


class AuditSummary(NamedTuple):
    total: int
    with_csp: int
    with_script_src: int

    @property
    def csp_fraction(self) -> float:
        return self.with_csp / self.total if self.total else 0.0

    @property
    def script_src_fraction(self) -> float:
        return self.with_script_src / self.total if self.total else 0.0


def _header_lookup(headers: Mapping[str, Any], name: str) -> Optional[str]:
    lowered = name.lower()
    for key, value in headers.items():
        if key.lower() == lowered:
            return value
    return None


def audit_headers(corpus: Iterable[tuple[str, Mapping[str, str]]]) -> AuditSummary:
    """Count worker-script responses carrying a CSP, and those with script-src.

    Worker responses are identified by the ``Service-Worker`` request header
    recorded alongside the response; other corpus entries are ignored.
    """
    total = with_csp = with_script_src = 0
    for _url, headers in corpus:
        if _header_lookup(headers, "Service-Worker") is None:
            continue
        total += 1
        csp_value = _header_lookup(headers, "Content-Security-Policy")
        if not csp_value:
            continue
        with_csp += 1
        if parse_csp(csp_value).script_src() is not None:
            with_script_src += 1
    return AuditSummary(total, with_csp, with_script_src)
