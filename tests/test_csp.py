import random

from sw_sentinel.csp import (
    audit_headers,
    check_eval,
    check_import,
    effective_sw_policy,
    host_source_matches,
    parse_csp,
)

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
        assert effective_sw_policy(None).directives["script-src"] == ("'self'",)

    def test_existing_script_src_wins(self):
        policy = parse_csp("script-src 'self' https://p.example")
        assert effective_sw_policy(policy).directives["script-src"] == (
            "'self'", "https://p.example"
        )

    def test_default_src_does_not_leak_into_script_src(self):
        policy = parse_csp("default-src https://open.example")
        effective = effective_sw_policy(policy)
        assert effective.directives["script-src"] == ("'self'",)
        assert not check_import(policy, ORIGIN, "https://open.example/x.js").allowed

    def test_idempotent(self):
        for header in ("", "script-src 'self'", "default-src 'none'",
                       "script-src https://x.example 'unsafe-eval'"):
            once = effective_sw_policy(parse_csp(header))
            twice = effective_sw_policy(once)
            assert once == twice


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
            got = host_source_matches(pattern, f"https://{host}/x")
            assert got == self._oracle(pattern, host), (pattern, host)

    def test_scheme_and_port(self):
        assert host_source_matches("https://cdn.example", "https://cdn.example/x")
        assert not host_source_matches("https://cdn.example", "http://cdn.example/x")
        assert not host_source_matches("cdn.example", "https://cdn.example:8443/x")
        assert host_source_matches("cdn.example:8443", "https://cdn.example:8443/x")
        assert host_source_matches("cdn.example:*", "https://cdn.example:8443/x")


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
