"""Deterministic hypothesis profile; one pass/fail line per acceptance criterion."""

import re

from hypothesis import settings

# same examples on every run and no wall-clock deadline, so a slow or busy
# machine never turns a property test red
settings.register_profile(
    "deterministic", derandomize=True, max_examples=60, deadline=None, database=None
)
settings.load_profile("deterministic")

_CRITERIA = {
    1: "shift invariance of stationary chains",
    2: "ergodic decomposition vs reachability oracle",
    3: "slow-recurrence worked example, exact norms and exponents",
    4: "splitting agreement, numeric vs exact routes",
    5: "jsr bounds on shear and nilpotent pair",
    6: "consistent probe vs greedy pointwise steering",
    7: "pointwise/exponential equivalence harness with gate",
    8: "almost-sure exponential decay on a reducible chain",
    9: "pre-extremal norm self-consistency",
    10: "byte-identical reports across MJLS_THREADS",
}

_PATTERN = re.compile(r"test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter):
    outcomes = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            match = _PATTERN.search(getattr(report, "nodeid", ""))
            if match:
                n = int(match.group(1))
                ok = status == "passed" and outcomes.get(n, True)
                outcomes[n] = ok
    if not outcomes:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for n in sorted(outcomes):
        tag = "PASS" if outcomes[n] else "FAIL"
        terminalreporter.write_line(f"[{tag}] criterion {n}: {_CRITERIA.get(n, '')}")
