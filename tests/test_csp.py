import random
from urllib.parse import urljoin, urlsplit

import pytest

from sw_sentinel.csp import (
    CspVerdict,
    audit_headers,
    check_eval,
    check_import,
    effective_script_src,
    host_source_matches,
    parse_csp,
)
from sw_sentinel.model import ModelError, Origin

ORIGIN = "https://a.example"


class TestParse:
    def test_directive_with_sources(self):
        policy = parse_csp("script-src 'self' https://cdn.push.example")
        assert policy.directives == {
            "script-src": ("'self'", "https://cdn.push.example")
        }

    def test_empty_header(self):
        assert parse_csp("").directives == {}

    def test_duplicate_directive_keeps_first(self):
        policy = parse_csp("script-src 'self'; script-src https://b.example")
        assert policy.directives["script-src"] == ("'self'",)

    def test_unknown_directives_retained_inert(self):
        policy = parse_csp("worker-src 'self'; frame-ancestors 'none'")
        assert "worker-src" in policy.directives
        # worker-src does not govern importScripts: third-party import still denied
        verdict = check_import(policy, ORIGIN, "https://evil.example/x.js")
        assert not verdict.allowed

    def test_malformed_source_skipped_with_warning(self):
        policy = parse_csp("script-src 'self' https://ok.example/path/x.js ht!tp::bad")
        assert policy.directives["script-src"] == ("'self'",)
        assert len(policy.warnings) == 2

    def test_parse_reads_the_directive_map_it_samples(self):
        rng = random.Random(11)
        hosts = ["https://a.example", "*.cdn.example", "b.example:8443", "'self'",
                 "'unsafe-eval'"]
        for _ in range(100):
            names = rng.sample(["script-src", "default-src", "img-src", "connect-src"],
                               rng.randint(1, 4))
            sampled = {name: tuple(rng.sample(hosts, rng.randint(1, len(hosts))))
                       for name in names}
            # Names and sources are case-insensitive: parsing lowers them.
            header = "; ".join(
                f"{rng.choice((str.lower, str.upper))(name)} "
                + " ".join(rng.choice((str.lower, str.upper))(source) for source in sources)
                for name, sources in sampled.items()
            )
            policy = parse_csp(header)
            assert policy.directives == sampled, header
            assert policy.warnings == []


class TestEffectivePolicy:
    def test_no_header_defaults_to_self(self):
        assert effective_script_src(None) == ("'self'",)

    def test_existing_script_src_wins(self):
        policy = parse_csp("script-src 'self' https://p.example")
        assert effective_script_src(policy) == ("'self'", "https://p.example")

    def test_default_src_does_not_leak_into_script_src(self):
        policy = parse_csp("default-src https://open.example")
        assert effective_script_src(policy) == ("'self'",)
        assert not check_import(policy, ORIGIN, "https://open.example/x.js").allowed

    def test_idempotent(self):
        """Checking a policy leaves it as parsed, so a second check judges alike."""
        for header in ("", "script-src 'self'", "default-src 'none'",
                       "script-src https://x.example 'unsafe-eval'"):
            policy = parse_csp(header)
            directives = dict(policy.directives)
            once = check_import(policy, ORIGIN, "https://x.example/a.js"), check_eval(policy)
            twice = check_import(policy, ORIGIN, "https://x.example/a.js"), check_eval(policy)
            assert once == twice and policy.directives == directives


class TestCheckImport:
    def test_self_allows_same_origin(self):
        policy = parse_csp("script-src 'self'")
        assert check_import(policy, ORIGIN, "https://a.example/lib.js").allowed

    def test_self_denies_third_party(self):
        policy = parse_csp("script-src 'self'")
        assert not check_import(policy, ORIGIN, "https://evil.example/x.js").allowed

    def test_authorized_push_provider_allowed(self):
        policy = parse_csp("script-src 'self' https://cdn.onesignal.example")
        verdict = check_import(policy, ORIGIN, "https://cdn.onesignal.example/sdk.js")
        assert verdict.allowed
        assert verdict.rule == "https://cdn.onesignal.example"

    def test_deny_by_default_over_random_urls(self):
        rng = random.Random(3)
        for _ in range(500):
            host = ".".join(
                "".join(rng.choice("abcxyz") for _ in range(rng.randint(1, 8)))
                for _ in range(rng.randint(1, 3))
            ) + ".example"
            url = f"https://{host}/sw-lib.js"
            verdict = check_import(None, ORIGIN, url)
            assert verdict.allowed == (host == "a.example")

    def test_verdict_rule_nonempty(self):
        for url in ("https://a.example/x.js", "https://z.example/x.js"):
            assert check_import(None, ORIGIN, url).rule

    def test_none_denies_everything(self):
        policy = parse_csp("script-src 'none'")
        assert not check_import(policy, ORIGIN, "https://a.example/x.js").allowed


class TestCheckEval:
    def test_denied_without_unsafe_eval(self):
        assert not check_eval(parse_csp("script-src 'self'")).allowed

    def test_allowed_with_unsafe_eval(self):
        assert check_eval(parse_csp("script-src 'self' 'unsafe-eval'")).allowed

    def test_denied_on_defaulted_policy(self):
        assert not check_eval(None).allowed


class TestHostMatching:
    @staticmethod
    def _oracle(pattern, host):
        # Label-by-label comparator, independent of the regex implementation.
        p_labels = pattern.split(".")
        h_labels = host.split(".")
        if p_labels[0] == "*":
            rest = p_labels[1:]
            return len(h_labels) > len(rest) and h_labels[-len(rest):] == rest
        return p_labels == h_labels

    def test_wildcard_matches_oracle(self):
        rng = random.Random(13)
        atoms = ["a", "b", "cdn", "example", "com"]
        for _ in range(400):
            host = ".".join(rng.choice(atoms) for _ in range(rng.randint(1, 4)))
            base = ".".join(rng.choice(atoms) for _ in range(rng.randint(1, 3)))
            pattern = base if rng.random() < 0.5 else "*." + base
            got = host_source_matches(pattern, urlsplit(f"https://{host}/x"))
            assert got == self._oracle(pattern, host), (pattern, host)

    def test_scheme_and_port(self):
        assert host_source_matches("https://cdn.example", urlsplit("https://cdn.example/x"))
        assert not host_source_matches("https://cdn.example", urlsplit("http://cdn.example/x"))
        assert not host_source_matches("cdn.example", urlsplit("https://cdn.example:8443/x"))
        assert host_source_matches("cdn.example:8443", urlsplit("https://cdn.example:8443/x"))
        assert host_source_matches("cdn.example:*", urlsplit("https://cdn.example:8443/x"))

    def test_a_token_that_is_no_host_source_matches_nothing(self):
        """``parse_csp`` skips such a token; a direct caller gets no match."""
        assert not host_source_matches("https:", urlsplit("https://cdn.example/x"))
        assert not host_source_matches("https://cdn.example/lib/",
                                       urlsplit("https://cdn.example/lib/x.js"))


def urljoin_check_import(policy, sw_origin, import_url):
    """Oracle: ``check_import`` as it was when every import resolved by
    ``urljoin`` against the worker's origin."""
    sw_origin = Origin.parse(sw_origin)
    parts = urlsplit(urljoin(f"{sw_origin}/", import_url))
    same_origin = bool(parts.hostname) and (
        Origin.parse(f"{parts.scheme}://{parts.netloc}") == sw_origin)
    for source in effective_script_src(policy):
        if source == "'self'" and same_origin:
            return CspVerdict(True, "'self'")
        if not source.startswith("'") and host_source_matches(source, parts):
            return CspVerdict(True, source)
    return CspVerdict(False, f"script-src has no source allowing {import_url}")


IMPORTS = ["https:evil.js", "//cdn.example/x", "/lib.js", "lib.js", "HTTPS://A.Example/x",
           "https://a.example:443/x", "data:text/javascript,x://y", "blob:https://a.example/u",
           "javascript:1", "https://[::1]:8443/x", "http://a.example/x", "https://cdn.example/x",
           "https://b.cdn.example:8443/x", "//a.example/x?y#z", "", "?q", "#f", "../../up.js"]
HEADERS = [None, "script-src 'self'", "script-src 'none'", "script-src https://cdn.example",
           "script-src *.cdn.example:*", "script-src * 'self'", "script-src http://a.example",
           "script-src a.example:443", "default-src https://cdn.example"]
ORIGINS = ["https://a.example", "https://a.example:8443", "https://[::1]:8443", "http://a.example"]


class TestImportResolution:
    """An import that has a scheme and a host resolves to itself, so only the
    others are joined to the origin: the verdicts are urljoin's."""

    @pytest.mark.parametrize("header", HEADERS)
    def test_verdicts_match_the_urljoin_form(self, header):
        policy = None if header is None else parse_csp(header)
        for origin in ORIGINS:
            for url in IMPORTS:
                assert check_import(policy, origin, url) == urljoin_check_import(
                    policy, origin, url), (origin, url)

    def test_a_relative_import_with_a_scheme_resolves_to_the_worker_host(self):
        verdict = check_import(parse_csp("script-src 'self'"), ORIGIN, "https:evil.js")
        assert verdict == CspVerdict(True, "'self'")

    def test_a_port_out_of_range_raises_as_the_urljoin_form_does(self):
        for header in (None, "script-src https://cdn.example"):
            policy = None if header is None else parse_csp(header)
            for check in (check_import, urljoin_check_import):
                with pytest.raises(ModelError, match="Port out of range"):
                    check(policy, ORIGIN, "https://a.example:99999/x")


class TestAudit:
    def _corpus(self, total, with_csp, with_script_src):
        rows = []
        for i in range(total):
            headers = {"Service-Worker": "script", "Content-Type": "text/javascript"}
            if i < with_script_src:
                headers["Content-Security-Policy"] = "script-src 'self'"
            elif i < with_csp:
                headers["content-security-policy"] = "default-src 'self'"
            rows.append((f"https://site{i}.example/sw.js", headers))
        return rows

    def test_proportions(self):
        summary = audit_headers(self._corpus(1000, 48, 8))
        assert (summary.total, summary.with_csp, summary.with_script_src) == (1000, 48, 8)
        assert summary.csp_fraction == 0.048
        assert summary.script_src_fraction == 0.008

    def test_empty(self):
        summary = audit_headers([])
        assert (summary.total, summary.with_csp, summary.with_script_src) == (0, 0, 0)

    def test_all_script_src(self):
        summary = audit_headers(self._corpus(10, 10, 10))
        assert summary.total == summary.with_csp == summary.with_script_src == 10

    def test_non_sw_responses_ignored(self):
        rows = [("https://x.example/app.js", {"Content-Type": "text/javascript"})]
        assert audit_headers(rows).total == 0
