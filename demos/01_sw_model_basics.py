"""
Service worker domain model
===========================

Registrations, scope matching, the lifecycle state machine and capability
restrictions. Run top to bottom:

    python3 demos/01_sw_model_basics.py
"""

from sw_sentinel import (
    Capability,
    InsecureOrigin,
    Origin,
    Scope,
    SwRegistry,
    apply_lifecycle_event,
    check_capability,
)

# -- Registering workers ----------------------------------------------------
# Only https origins may register; the first worker activates immediately.
registry = SwRegistry()
origin = Origin.parse("https://shop.example")

root = registry.register_sw(origin, Scope("/"), "https://shop.example/sw.js")
print("root worker state:", root.state.value)

try:
    registry.register_sw(Origin.parse("http://shop.example"), Scope("/"),
                         "http://shop.example/sw.js")
except InsecureOrigin as exc:
    print("insecure registration rejected:", exc)

# A second worker under a more specific scope coexists with the root one.
push_sw = registry.register_sw(
    origin, Scope("/push/"), "https://shop.example/push/sw.js",
    capabilities=frozenset({Capability.PUSH, Capability.NOTIFICATIONS}),
)

# -- Scope matching: the most specific scope controls the page ---------------
for path in ("/index.html", "/push/inbox.html", "/push"):
    controller = registry.match_scope(origin, path)
    print(f"{path:20s} -> {controller.scope if controller else 'no controller'}")

# -- Capability restrictions --------------------------------------------------
# The push worker was registered for push+notifications only: cache, cookie,
# and fetch interception are denied by construction.
for capability in Capability:
    verdict = "allowed" if check_capability(push_sw, capability) else "DENIED"
    print(f"push worker / {capability.value:16s} {verdict}")

# -- Lifecycle ----------------------------------------------------------------
# A waiting worker takes over when activated; it runs while it handles an
# event, is terminated, and the next event wakes it again.
waiting = registry.register_sw(origin, Scope("/beta/"),
                               "https://shop.example/beta/sw.js",
                               has_existing_controller=True)
print("new version starts in:", waiting.state.value)
for event in ("activate", "event_arrived", "terminate", "event_arrived"):
    state = apply_lifecycle_event(waiting, event)
    print(f"  after {event:15s} -> {state.value}")
