"""Certified family reuse: a profile variant served from a sibling's optimum.

Profile-guided re-runs change block frequencies, and the frequencies
enter the phase-1 model (eqs. 2–7) only through the objective (7),
Σ_B freq(B)·Σ_t t·len[B,t]. When a request's phase-1 model has the same
feasible set as a solved sibling's — same matrix, row and column bounds
and integrality, checked by :func:`feasible_digest` — the sibling's
optimum x* is feasible for the request, and it stays optimal whenever
the frequency change cannot make another point cheaper. With
δ_B = freq'(B) − freq(B) and L_x(B) the length of B under x, for every
feasible x:

    c'x − c'x* = (cx − cx*) + Σ_B δ_B·(L_x(B) − L*(B)).

The first term is ≥ 0 because x* is optimal for c. Each summand is ≥ 0
when every block with δ_B > 0 sits at a valid lower bound of its length
(:func:`length_lower_bounds`) and every block with δ_B < 0 sits at its
range maximum G(B). :func:`certifies` checks exactly that, and
:func:`reuse` the feasible sets.

Phase 2 pins the phase-1 lengths and minimizes an instruction count that
reads no frequency, so with the same x* its model is identical too, and
the sibling's phase-2 optimum carries over unchanged.

A :func:`family_record` is the part of a solved result a later sibling
needs: the digest, the block frequencies, and the nonzero columns of
both optima (every model variable is binary). It is only made for a
whole-function result whose phase 1 was solved to optimality on its
unhinted cycle ranges, with no bundling cut or range growth, and whose
phase 2 (when enabled) was optimal as well.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.ilp.status import Solution, SolveStatus

# Transplanted points must satisfy the request's rows within this slack
# (the solver's own feasibility tolerance is tighter).
_FEAS_TOL = 1e-6


def feasible_digest(arrays):
    """sha256 of a model's feasible set: ``A``, row and column bounds and
    integrality from :meth:`repro.ilp.Model.to_arrays`; the objective is
    left out."""
    matrix = arrays["A"]
    digest = hashlib.sha256()
    digest.update(np.asarray(matrix.shape, dtype=np.int64).tobytes())
    for part in (matrix.indptr, matrix.indices):
        digest.update(np.ascontiguousarray(part, dtype=np.int64).tobytes())
    for part in (matrix.data, arrays["b_lo"], arrays["b_hi"],
                 arrays["lb"], arrays["ub"]):
        digest.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
    digest.update(np.ascontiguousarray(arrays["integrality"], dtype=bool).tobytes())
    return digest.hexdigest()


def length_lower_bounds(ilp):
    """``{block: 0 | 1}``: a length every solution of ``ilp`` reaches.

    A block's length is at least 1 when it hosts an instruction whose
    only placement block it is, whose assignment right-hand side is the
    constant 1, and which is not a collapsible branch: that instruction
    is placed in the block in every solution.
    """
    bounds = {block.name: 0 for block in ilp.region.fn.blocks}
    for instr, info in ilp.info.items():
        rhs = info.assign_rhs
        if (
            len(info.theta) == 1
            and isinstance(rhs, (int, float))
            and rhs == 1
            and instr not in ilp.collapsible_branches
        ):
            bounds[next(iter(info.theta))] = 1
    return bounds


def family_record(ilp, digest, phase1, phase2):
    """The JSON-able record a sibling reuses: the feasible-set digest,
    the block frequencies, the phase-1 block lengths, and the nonzero
    columns of the phase-1 and phase-2 (or ``None``) solutions."""
    support = _support(phase1)
    return {
        "digest": digest,
        "freqs": {block.name: block.freq for block in ilp.region.fn.blocks},
        "lengths": _lengths(ilp, support),
        "phase1": support,
        "phase2": None if phase2 is None else _support(phase2),
        "objective2": None if phase2 is None else phase2.objective,
    }


def _support(solution):
    return sorted(var.index for var, value in solution.values.items() if value)


def certifies(ilp, record):
    """Does ``record``'s phase-1 optimum stay optimal under ``ilp``'s
    block frequencies, provided the feasible sets match?

    True when every block whose frequency rose sits at its lower bound
    and every block whose frequency fell sits at its range maximum (the
    module docstring has the proof). ``ilp`` need not be generated yet.
    """
    theirs, lengths = record["freqs"], record["lengths"]
    blocks = ilp.region.fn.blocks
    names = {block.name for block in blocks}
    if set(theirs) != names or set(lengths) != names:
        return False
    lower = None
    for block in blocks:
        delta = block.freq - theirs[block.name]
        if delta > 0:
            if lower is None:
                lower = length_lower_bounds(ilp)
            if lengths[block.name] != lower[block.name]:
                return False
        elif delta < 0 and lengths[block.name] != ilp.lengths[block.name]:
            return False
    return True


def _lengths(ilp, support):
    """``{block: length}`` of the solution with nonzero columns
    ``support``, or ``None`` unless exactly one ``len[B, t]`` per block
    is set."""
    owner = {var.index: key for key, var in ilp.blen.items()}
    lengths = {}
    for col in support:
        key = owner.get(col)
        if key is None:
            continue
        block, t = key
        if block in lengths:
            return None
        lengths[block] = t
    if len(lengths) != len(ilp.region.fn.blocks):
        return None
    return lengths


def _transplant(model, arrays, support, objective=None):
    """The point with ones at ``support`` as an OPTIMAL
    :class:`Solution` of ``model``, or ``None`` when it violates a row
    or column bound of ``arrays`` (``model``'s matrix form).

    ``objective`` defaults to the point's value under ``arrays["c"]``.
    """
    count = model.num_variables
    if any(not 0 <= col < count for col in support):
        return None
    point = np.zeros(count)
    point[list(support)] = 1.0
    if np.any(point < arrays["lb"]) or np.any(point > arrays["ub"]):
        return None
    activity = arrays["A"].dot(point)
    if np.any(activity < arrays["b_lo"] - _FEAS_TOL) or np.any(
        activity > arrays["b_hi"] + _FEAS_TOL
    ):
        return None
    if objective is None:
        objective = float(arrays["c"].dot(point))
    values = dict(zip(model.variables, point.tolist()))
    return Solution(SolveStatus.OPTIMAL, objective, values)


def reuse(ilp, arrays, digest, records, two_phase):
    """``(phase1, phase2)`` solutions for the generated ``ilp`` taken
    from the first of ``records`` (which :func:`certifies` accepted)
    whose feasible set matches, or ``None``.

    ``arrays`` is the matrix form of ``ilp``'s unhinted phase-1 model and
    ``digest`` its :func:`feasible_digest`. Each transplanted point must
    satisfy the model and set the record's lengths, which phase 2's pins
    demand of its optimum too. ``phase2`` is ``None`` when ``two_phase``
    is off.
    """
    for record in records:
        if record["digest"] != digest:
            continue
        phase1 = _transplant(ilp.model, arrays, record["phase1"])
        if phase1 is None or _lengths(ilp, record["phase1"]) != record["lengths"]:
            continue
        if not two_phase:
            return phase1, None
        support = record["phase2"]
        if support is None or _lengths(ilp, support) != record["lengths"]:
            continue
        phase2 = _transplant(ilp.model, arrays, support, record["objective2"])
        if phase2 is not None:
            return phase1, phase2
    return None
