"""Lower bounds on the initiation interval (MII) and start windows.

Modulo scheduling searches for the smallest initiation interval II at
which a loop kernel exists.  Two classic lower bounds prune that search
before any ILP is built, each the exact optimum of a relaxation:

**ResMII** relaxes every dependence: each kernel iteration must still
issue the body through the Itanium 2 dispersal windows, so per unit
class the bound is ``ceil(uses / ports)``; the issue width (``L``-unit
ops cost two slots) and the shared M+I pool give two more.

**RecMII** relaxes every resource: a dependence cycle C with latency
L(C) and iteration distance D(C) forces ``II >= ceil(L(C) / D(C))``.
Rather than enumerate cycles, a binary search on II asks whether the
arcs weighted ``latency − distance·II`` hold a positive cycle
(Bellman–Ford: a bound still moving after |V| passes proves one).
Raising II only lowers weights, so the first II without one is RecMII.

The same relaxation gives each instruction's **start window** at a
given II — the earliest and latest start the dependence (and lifetime)
rows allow inside a horizon.  The ILPs create variables only inside
those windows, and an empty window proves the II infeasible unsolved.
"""

from __future__ import annotations

import math

from repro.machine.itanium2 import ITANIUM2
from repro.machine.units import UnitKind


def resource_mii(body, machine=ITANIUM2):
    """ResMII: ceil(usage / capacity) over all unit classes."""
    ports = machine.ports
    counts = {kind: 0 for kind in UnitKind}
    for instr in body:
        counts[instr.unit] += 1
    slots = (
        counts[UnitKind.M]
        + counts[UnitKind.I]
        + counts[UnitKind.F]
        + counts[UnitKind.B]
        + counts[UnitKind.A]
        + 2 * counts[UnitKind.L]
    )
    bounds = [
        math.ceil(slots / ports.issue_width),
        math.ceil(counts[UnitKind.M] / ports.m_ports),
        math.ceil((counts[UnitKind.I] + counts[UnitKind.L]) / ports.i_ports),
        math.ceil(counts[UnitKind.F] / ports.f_ports) if counts[UnitKind.F] else 0,
        math.ceil(counts[UnitKind.B] / ports.b_ports) if counts[UnitKind.B] else 0,
        math.ceil(
            (counts[UnitKind.A] + counts[UnitKind.M] + counts[UnitKind.I])
            / (ports.m_ports + ports.i_ports)
        ),
    ]
    return max([b for b in bounds if b] + [1])


def recurrence_mii(body, edges):
    """RecMII: smallest II with no positive-weight cycle (binary search).

    Every cycle spans an iteration or more, so the sum of the positive
    latencies bounds every cycle ratio and caps the search.
    """
    low, high = 1, max(sum(e.latency for e in edges if e.latency > 0), 1)
    while low < high:
        mid = (low + high) // 2
        if has_positive_cycle(body, edges, mid):
            low = mid + 1
        else:
            high = mid
    return low


def has_positive_cycle(body, edges, ii):
    """Bellman–Ford positive-cycle test at candidate II."""
    return start_windows(body, edges, ii, math.inf) is None


def start_windows(body, edges, ii, horizon, lifetimes=False):
    """``{instr: (earliest, latest)}`` start cycles at ``ii``, or None.

    Longest paths over the arcs ``latency − distance·II`` from 0 give the
    earliest starts; backward from ``horizon``, the latest.  ``lifetimes``
    adds the reverse arc of each modulo-ILP lifetime row ``t_dst − t_src
    ≤ horizon − distance·II``.  None (a positive cycle or an empty
    window) proves that no schedule exists at this II.
    """
    members, arcs = set(body), []
    for e in edges:
        if e.src in members and e.dst in members:
            arcs.append((e.src, e.dst, e.latency - e.distance * ii))
            if lifetimes and e.latency > 0:
                arcs.append((e.dst, e.src, e.distance * ii - horizon))
    earliest = _longest_paths(body, arcs, 0)
    latest = _longest_paths(body, [(d, s, w) for s, d, w in arcs], -horizon)
    if earliest is None or latest is None:
        return None
    windows = {n: (earliest[n], -latest[n]) for n in body}
    return None if any(a > b for a, b in windows.values()) else windows


def critical_path(body, edges):
    """Longest distance-0 path (acyclic) in cycles."""
    forward = [(e.src, e.dst, max(e.latency, 0)) for e in edges
               if e.distance == 0]
    return max((_longest_paths(body, forward, 1) or {}).values(), default=1)


def _longest_paths(body, arcs, start):
    """Bellman–Ford longest paths from ``start``; None on a positive cycle."""
    bound = dict.fromkeys(body, start)
    for _ in range(len(body) + 1):
        changed = False
        for src, dst, weight in arcs:
            if bound[src] + weight > bound[dst]:
                bound[dst] = bound[src] + weight
                changed = True
        if not changed:
            return bound
    return None
