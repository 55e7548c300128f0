"""
Fail-safe CSP defaults for worker scripts
=========================================

Without a header, the effective policy on a worker script response is
``script-src 'self'``: importScripts from third-party origins is denied and
eval() is off until 'unsafe-eval' is granted explicitly.

    python3 demos/04_csp_fail_safe_defaults.py
"""

from sw_sentinel import audit_headers, check_eval, check_import, parse_csp
from sw_sentinel.csp import effective_script_src

ORIGIN = "https://shop.example"

# -- No header at all: deny-by-default ----------------------------------------
print("effective script-src with no header:", effective_script_src(None))
for url in (f"{ORIGIN}/helpers.js", "https://cdn.pushprovider.example/sdk.js"):
    verdict = check_import(None, ORIGIN, url)
    print(f"  import {url}: {'allow' if verdict.allowed else 'deny'} ({verdict.rule})")

# -- Authorizing one push provider is a one-line exception ----------------------
policy = parse_csp("script-src 'self' https://cdn.pushprovider.example")
verdict = check_import(policy, ORIGIN, "https://cdn.pushprovider.example/sdk.js")
print("provider import with exception:", verdict.allowed, "via", verdict.rule)

# default-src never leaks into worker imports: the worker default stays.
loose = parse_csp("default-src https://open.example")
print("default-src does not open imports:",
      check_import(loose, ORIGIN, "https://open.example/x.js").allowed)

# -- eval gating -----------------------------------------------------------------
print("eval under 'self':", check_eval(policy).allowed)
print("eval with 'unsafe-eval':",
      check_eval(parse_csp("script-src 'self' 'unsafe-eval'")).allowed)

# -- Adoption audit ----------------------------------------------------------------
# A synthetic corpus with the in-the-wild proportions: only a sliver of
# worker-script responses carry any CSP, and fewer still a script-src.
corpus = []
for i in range(1_000):
    headers = {"Service-Worker": "script"}
    if i < 8:
        headers["Content-Security-Policy"] = "script-src 'self'"
    elif i < 48:
        headers["Content-Security-Policy"] = "default-src 'self'"
    corpus.append((f"https://site{i}.example/sw.js", headers))
summary = audit_headers(corpus)
print(f"audit: {summary.with_csp / summary.total:.1%} have a CSP, "
      f"{summary.with_script_src / summary.total:.1%} have script-src")
