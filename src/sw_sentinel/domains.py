"""Registrable-domain extraction with a small embedded public-suffix table.

The table carries the multi-label suffixes that actually change the answer
(co.uk, com.au, github.io, ...). Anything else falls back to the last two
labels, which is correct for all plain gTLDs/ccTLDs.

Both lookups are memoized with a fixed bound: a trace asks about the same
few hosts and URLs on every line, and the answers are immutable strings.
"""

from __future__ import annotations

from functools import lru_cache
from urllib.parse import urlsplit

# Multi-label public suffixes seen most often in the wild, plus the common
# hosted-app suffixes. Single-label TLDs are handled by the fallback rule.
PUBLIC_SUFFIXES: frozenset[str] = frozenset(
    {
        "co.uk",
        "org.uk",
        "ac.uk",
        "gov.uk",
        "me.uk",
        "net.uk",
        "co.jp",
        "ne.jp",
        "or.jp",
        "ac.jp",
        "go.jp",
        "com.au",
        "net.au",
        "org.au",
        "edu.au",
        "gov.au",
        "com.br",
        "net.br",
        "org.br",
        "com.cn",
        "net.cn",
        "org.cn",
        "gov.cn",
        "co.in",
        "net.in",
        "org.in",
        "co.kr",
        "or.kr",
        "com.mx",
        "com.ar",
        "com.tr",
        "co.za",
        "com.sg",
        "com.hk",
        "co.nz",
        "org.nz",
        "com.tw",
        "github.io",
        "gitlab.io",
        "appspot.com",
        "herokuapp.com",
        "amazonaws.com",
        "azurewebsites.net",
        "blogspot.com",
        "cloudfront.net",
        "firebaseapp.com",
        "netlify.app",
        "vercel.app",
        "web.app",
        "pages.dev",
    }
)


@lru_cache(maxsize=4096)
def registrable_domain(host: str) -> str:
    """Return the registrable domain (public suffix plus one label) for a host.

    Hosts whose suffix is not in the table use the last two labels. A bare
    label (or an IP-looking host) is returned unchanged.
    """
    host = host.strip().rstrip(".").lower()
    if not host:
        return host
    labels = host.split(".")
    if len(labels) < 2:
        return host
    if all(part.isdigit() for part in labels):  # IPv4 literal
        return host
    # Longest matching suffix wins.
    for take in range(len(labels) - 1, 0, -1):
        candidate = ".".join(labels[-take:])
        if candidate in PUBLIC_SUFFIXES:
            return ".".join(labels[-(take + 1):])
    return ".".join(labels[-2:])


@lru_cache(maxsize=4096)
def url_registrable_domain(url: str) -> str:
    """Registrable domain of a URL's host ("" when the URL has no host)."""
    host = urlsplit(url).hostname or ""
    return registrable_domain(host)
