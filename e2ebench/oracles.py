"""Connectivity oracle, run after the timed phase.

Every answer's component count must equal the exact component count of
the window's *net-support* graph — the pairs whose multiplicity differs
between the window's two epoch boundaries — computed from the
benchmark's own updates.  Prefix windows are the graph state; sliding
windows carry deletions as negative entries, and the sketch answers
about their support.  Mismatches count as failed operations, behind
``error_ratio``.
"""

from __future__ import annotations

import json

import numpy as np

from .workloads import Plan


def _ranks(n: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return lo * n - lo * (lo + 1) // 2 + (hi - lo - 1)


def epoch_states(plan: Plan, steps: int) -> list[np.ndarray]:
    """Live-pair multiplicity vectors at every epoch boundary (index 0 is
    the empty graph) over the history plus the first ``steps`` timed steps."""
    n = plan.config.n
    state = np.zeros(n * (n - 1) // 2, dtype=np.int64)
    states = [state.copy()]
    for step in plan.history + plan.timed[:steps]:
        np.add.at(state, _ranks(n, step.lo, step.hi), step.delta)
        if step.seal:
            states.append(state.copy())
    return states


def expected_components(n: int, states: list[np.ndarray], window) -> int:
    """Exact component count (isolated nodes included) of the graph on
    ``n`` nodes whose edges are the net support of ``[t1, t2)``."""
    t1, t2 = window
    ranks = np.flatnonzero(states[t2] != states[t1])
    lo, hi = np.triu_indices(n, 1)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = n
    for a, b in zip(lo[ranks].tolist(), hi[ranks].tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            components -= 1
    return components


def _answered_components(body) -> "tuple[int, object] | None":
    """Component count (and window) of a served envelope or typed answer."""
    if isinstance(body, int):
        return body, None
    doc = json.loads(body)
    if doc.get("result") != "connectivity":
        return None
    window = doc.get("window")
    return doc["body"]["components"], tuple(window) if window else None


def check_connectivity(plan: Plan, answers: list) -> int:
    """Mismatches among ``(step, window, status, body)`` answers."""
    ok = [a for a in answers if a[2] == 200]
    if not ok:
        return 0
    states = epoch_states(plan, max(a[0] for a in ok) + 1)
    mismatches = 0
    for _step, window, _status, body in ok:
        got = _answered_components(body)
        want = expected_components(plan.config.n, states, window)
        if got is None or got[0] != want or got[1] not in (None, window):
            mismatches += 1
    return mismatches
