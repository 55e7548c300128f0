import importlib
import inspect
import pkgutil
import random

import pytest

import sw_sentinel
from sw_sentinel.model import (
    Capability,
    CrossOriginScript,
    DuplicateScope,
    IllegalTransition,
    InsecureOrigin,
    InvalidScope,
    Origin,
    Scope,
    SwRecord,
    SwRegistry,
    SwSentinelError,
    SwState,
    apply_lifecycle_event,
    check_capability,
)


def make_record(caps=None, scope="/", state=SwState.ACTIVATED):
    return SwRecord(
        sw_id="sw-t",
        origin=Origin.parse("https://a.example"),
        scope=Scope(scope),
        script_url="https://a.example/sw.js",
        state=state,
        capabilities=caps,
    )


class TestOrigin:
    def test_parse_and_equality(self):
        assert Origin.parse("https://a.example") == Origin.parse("https://A.EXAMPLE:443")
        assert Origin.parse("https://a.example:8443") != Origin.parse("https://a.example")
        assert Origin.parse("https://a.example") != Origin.parse("http://a.example")

    def test_str_round_trip(self):
        for text in ("https://a.example", "https://a.example:8443", "http://b.example",
                     "https://[::1]", "https://[::1]:8443", "http://[2001:db8::7]:8080"):
            assert str(Origin.parse(text)) == text
            assert Origin.parse(str(Origin.parse(text))) == Origin.parse(text)

    def test_is_secure(self):
        assert Origin.parse("https://a.example").is_secure
        assert not Origin.parse("http://a.example").is_secure


class TestScope:
    def test_trailing_slash_appended(self):
        assert Scope("/test").path_prefix == "/test/"
        assert Scope("/").path_prefix == "/"

    def test_text_is_the_prefix(self):
        assert str(Scope("/app")) == "/app/"

    def test_segment_alignment(self):
        assert not Scope("/te").contains("/test/x")
        assert Scope("/test/").contains("/test/x")
        assert not Scope("/test/").contains("/test")

    def test_rejects_bad_paths(self):
        with pytest.raises(InvalidScope):
            Scope("relative")
        with pytest.raises(InvalidScope):
            Scope("/a/../b")
        with pytest.raises(InvalidScope):
            Scope("/a?x=1")


class TestRegisterSw:
    def test_first_registration_activates_immediately(self):
        reg = SwRegistry()
        rec = reg.register_sw(Origin.parse("https://a.example"), Scope("/"),
                              "https://a.example/sw.js")
        assert rec.state is SwState.ACTIVATED
        assert rec.capabilities is None

    def test_insecure_origin_rejected(self):
        reg = SwRegistry()
        with pytest.raises(InsecureOrigin):
            reg.register_sw(Origin.parse("http://a.example"), Scope("/"),
                            "http://a.example/sw.js")

    def test_capability_restricted_registration(self):
        reg = SwRegistry()
        rec = reg.register_sw(
            Origin.parse("https://a.example"), Scope("/push/"),
            "https://a.example/push_sw.js",
            capabilities=frozenset({Capability.PUSH, Capability.NOTIFICATIONS}),
        )
        assert not check_capability(rec, Capability.CACHE)
        assert not check_capability(rec, Capability.FETCH_INTERCEPT)
        assert not check_capability(rec, Capability.COOKIES)
        assert check_capability(rec, Capability.PUSH)

    def test_cross_origin_script_rejected(self):
        reg = SwRegistry()
        with pytest.raises(CrossOriginScript):
            reg.register_sw(Origin.parse("https://a.example"), Scope("/"),
                            "https://evil.example/sw.js")

    def test_duplicate_scope_rejected(self):
        reg = SwRegistry()
        origin = Origin.parse("https://a.example")
        reg.register_sw(origin, Scope("/"), "https://a.example/sw.js")
        with pytest.raises(DuplicateScope):
            reg.register_sw(origin, Scope("/"), "https://a.example/sw2.js")

    def test_existing_controller_waits(self):
        reg = SwRegistry()
        rec = reg.register_sw(Origin.parse("https://a.example"), Scope("/w/"),
                              "https://a.example/sw.js", has_existing_controller=True)
        assert rec.state is SwState.WAITING

    def test_default_scope_is_script_directory(self):
        reg = SwRegistry()
        rec = reg.register_sw(Origin.parse("https://a.example"), None,
                              "https://a.example/app/sw.js")
        assert rec.scope.path_prefix == "/app/"


class TestMatchScope:
    def test_root_scope_matches_index(self):
        reg = SwRegistry()
        origin = Origin.parse("https://a.example")
        rec = reg.register_sw(origin, Scope("/"), "https://a.example/sw.js")
        assert reg.match_scope(origin, "/index.html") is rec

    def test_most_specific_scope_wins(self):
        reg = SwRegistry()
        origin = Origin.parse("https://a.example")
        reg.register_sw(origin, Scope("/"), "https://a.example/sw.js")
        specific = reg.register_sw(origin, Scope("/test/"), "https://a.example/t.js")
        assert reg.match_scope(origin, "/test/page.html") is specific

    def test_no_match_outside_scope(self):
        reg = SwRegistry()
        origin = Origin.parse("https://a.example")
        reg.register_sw(origin, Scope("/app/"), "https://a.example/app/sw.js")
        assert reg.match_scope(origin, "/other/x") is None

    def test_matches_brute_force_on_random_registries(self):
        # Oracle: enumerate records, filter prefix matches, take longest.
        rng = random.Random(42)
        segments = ["app", "test", "push", "x", "deep", "v2"]
        for _ in range(120):
            reg = SwRegistry()
            origin = Origin.parse("https://r.example")
            n = rng.randint(1, 100)
            for _ in range(n):
                depth = rng.randint(0, 3)
                path = "/" + "/".join(rng.choice(segments) for _ in range(depth))
                scope = Scope(path if path.endswith("/") else path + "/")
                try:
                    reg.register_sw(origin, scope, "https://r.example/sw.js")
                except DuplicateScope:
                    continue
            for _ in range(20):
                depth = rng.randint(0, 4)
                page = "/" + "/".join(rng.choice(segments) for _ in range(depth))
                if rng.random() < 0.5:
                    page += "/page.html"
                candidates = [
                    r for r in reg.records() if r.scope.contains(page)
                ]
                expected = max(
                    candidates, key=lambda r: len(r.scope.path_prefix), default=None
                )
                got = reg.match_scope(origin, page)
                if expected is None:
                    assert got is None
                else:
                    assert got is not None
                    assert got.scope.path_prefix == expected.scope.path_prefix

    def test_registry_uniqueness_invariant(self):
        rng = random.Random(7)
        reg = SwRegistry()
        origin = Origin.parse("https://u.example")
        for _ in range(200):
            scope = Scope("/" + str(rng.randint(0, 30)) + "/")
            try:
                reg.register_sw(origin, scope, "https://u.example/sw.js")
            except DuplicateScope:
                pass
        keys = [(str(r.origin), r.scope.path_prefix) for r in reg.records()]
        assert len(keys) == len(set(keys))


class TestLifecycle:
    def test_update_found_restarts_installing_with_version(self):
        rec = make_record()
        version = rec.version
        assert apply_lifecycle_event(rec, "update_found") is SwState.INSTALLING
        assert rec.version == version + 1
        assert rec.sw_id == "sw-t"

    def test_deregistered_is_absorbing(self):
        rec = make_record()
        apply_lifecycle_event(rec, "deregister")
        for event in ("event_arrived", "deregister", "terminate", "update_found"):
            with pytest.raises(IllegalTransition):
                apply_lifecycle_event(rec, event)

    def test_terminated_rewakes_on_event(self):
        rec = make_record(state=SwState.TERMINATED)
        assert apply_lifecycle_event(rec, "event_arrived") is SwState.RUNNING

    def test_installing_runs_on_event(self):
        rec = make_record(state=SwState.INSTALLING)
        assert apply_lifecycle_event(rec, "event_arrived") is SwState.RUNNING

    def test_random_legal_sequences_stay_in_state_space(self):
        from sw_sentinel.model import LIFECYCLE_EVENTS

        rng = random.Random(99)
        events = sorted(LIFECYCLE_EVENTS)
        for _ in range(300):
            rec = make_record(state=SwState.INSTALLING)
            for _ in range(40):
                event = rng.choice(events)
                try:
                    state = apply_lifecycle_event(rec, event)
                except IllegalTransition:
                    continue
                assert isinstance(state, SwState)
                if state is SwState.DEREGISTERED:
                    break


class TestCapabilities:
    def test_unrestricted_allows_everything(self):
        rec = make_record(caps=None)
        for cap in Capability:
            assert check_capability(rec, cap)

    def test_restricted_set(self):
        rec = make_record(caps=frozenset({Capability.PUSH, Capability.NOTIFICATIONS}))
        assert not check_capability(rec, Capability.CACHE)
        assert check_capability(rec, Capability.PUSH)

    def test_monotonicity_shrinking_never_grants(self):
        rng = random.Random(4)
        caps = list(Capability)
        for _ in range(200):
            full = frozenset(c for c in caps if rng.random() < 0.6)
            smaller = frozenset(c for c in full if rng.random() < 0.5)
            rec_full = make_record(caps=full)
            rec_small = make_record(caps=smaller)
            for cap in caps:
                if not check_capability(rec_full, cap):
                    assert not check_capability(rec_small, cap)


def test_every_package_exception_derives_from_the_one_base():
    """A caller can catch every error the package defines with one except."""
    assert sw_sentinel.SwSentinelError is SwSentinelError
    defined = []
    for module_info in pkgutil.iter_modules(sw_sentinel.__path__):
        module = importlib.import_module(f"sw_sentinel.{module_info.name}")
        for _name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and issubclass(cls, BaseException):
                defined.append(cls)
    assert len(defined) >= 17
    assert [cls for cls in defined if not issubclass(cls, SwSentinelError)] == []
