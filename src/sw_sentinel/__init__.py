"""Desk-scale model of the browser service worker subsystem plus a policy
enforcement engine: attack workload generators, closed-loop simulation,
recorded-trace enforcement, CSP checks, and trace forensics."""

from .model import (Capability, CrossOriginScript, DuplicateScope, IllegalTransition,
                    InsecureOrigin, Origin, Scope, SwRecord, SwRegistry, SwSentinelError,
                    SwState, apply_lifecycle_event, check_capability)
from .trace import EVENT_KINDS, TraceEvent, emit_trace, parse_trace, read_trace
from .policy import (BrowserProfile, EnforcementAction, EngagementScore, PolicyConfig,
                     PolicyEngine, PolicySpec, PROFILES, Severity, ViolationRecord,
                     default_policies, load_policies)
from .scenarios import Scenario, SimulationResult, generate, simulate
from .csp import (CspPolicy, CspVerdict, audit_headers, check_eval, check_import,
                  effective_script_src, parse_csp)
from .forensics import (BehaviorReport, PercentileSummary, RankBand, analyze_trace,
                        export_cdf, percentile, summarize)
from .domains import registrable_domain

__version__ = "0.1.0"
