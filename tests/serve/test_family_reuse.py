"""Certified family reuse (:mod:`repro.sched.certify` through the service).

A profile variant — the same routine with one block's frequency changed
— is served from a stored sibling's optimum with no solve only when the
certificate proves that optimum is still optimal; otherwise it is solved
cold on its own model:

* every family answer, certified or not, is exactly as good as a cold
  solve,
* a certified answer needs no solver at all and still re-verifies,
* siblings that needed a bundling cut or are not ``optimal`` never serve
  as a source, and a variant whose raised block sits above its lower
  bound is solved cold and becomes a source itself,
* the ``serve_mix`` variants whose answers were once longer than cold
  do not certify yet match cold, and two that certify stay certified.
"""

import tempfile

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.errors import BundlingError
from repro.ir.parser import parse_function
from repro.ir.printer import format_function
from repro.sched import scheduler as scheduler_mod
from repro.sched import certify
from repro.sched.scheduler import (
    IlpScheduler,
    ScheduleFeatures,
    optimize_function,
)
from repro.sched.verifier import verify_schedule
from repro.serve.service import ScheduleService
from repro.tools import faults
from repro.workloads.generator import RoutineSpec, generate_routine

FEATURES = ScheduleFeatures(time_limit=30, max_hops=4)


def _text(spec):
    return format_function(generate_routine(spec))


def _scaled(text, block_index, factor):
    """``text`` with one block's profile weight scaled (a family member)."""
    fn = parse_function(text)
    block = fn.blocks[block_index]
    block.freq = round(block.freq * factor, 3)
    return format_function(fn)


def _svc(i):
    """Routine ``svc<i>`` of the ``serve_mix`` pool."""
    return _text(RoutineSpec(
        name=f"svc{i}", seed=900 + i, instructions=24 + 4 * (i % 4),
        blocks=5 + i % 3,
    ))


def _serve_variant(svc, text, index):
    """``serve_mix`` profile variant ``index`` of ``text``, served after
    its base routine."""
    block = 1 + index % (len(parse_function(text).blocks) - 1)
    base = svc.request(parse_function(text))
    assert base.kind == "miss"
    variant = _scaled(text, block, 1.5 + 0.5 * index)
    return svc.request(parse_function(variant)), variant


@pytest.fixture
def svc(tmp_path):
    return ScheduleService(tmp_path / "cache", default_features=FEATURES)


# -- (a) exactness -----------------------------------------------------------
@given(
    seed=st.integers(0, 10**5),
    block=st.integers(1, 4),
    factor=st.sampled_from([0.25, 0.5, 1.5, 3.0]),
)
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_certified_variant_matches_cold_solve(seed, block, factor):
    text = _text(RoutineSpec(name="fam", seed=seed, instructions=24, blocks=5))
    variant = _scaled(text, block, factor)
    with tempfile.TemporaryDirectory() as tmp:
        service = ScheduleService(tmp, default_features=FEATURES)
        assume(service.request(parse_function(text)).stored)
        served = service.request(parse_function(variant))
    assert served.kind == "family"
    assert served.result.verification.ok
    cold = optimize_function(parse_function(variant), FEATURES)
    assert cold.quality == "optimal"
    assert served.result.quality == "optimal"
    assert served.result.weighted_length_out == cold.weighted_length_out


# -- (b) no solver call ----------------------------------------------------------
def test_certified_variant_needs_no_solver(svc, monkeypatch):
    text = _svc(0)
    svc.request(parse_function(text))

    def no_solver(*args, **kwargs):
        raise AssertionError("a certified variant called the solver")

    monkeypatch.setattr(scheduler_mod, "solve_model", no_solver)
    monkeypatch.setattr("repro.sched.phase2.solve_model", no_solver)
    served = svc.request(parse_function(_scaled(text, 1, 1.5)))
    assert served.certified
    assert served.result.quality == "optimal"
    assert served.result.verification.ok
    assert served.result.trace.counters["family_certified"] == 1
    assert "served from a certified family sibling" in served.notes
    result = served.result
    report = verify_schedule(
        result.output_schedule, result.region, result.reconstruction,
        dep_edges=result.verify_edges, edge_scopes=result.verify_scopes,
    )
    assert report.ok, report.problems[:3]
    # It is a source in turn, and its stored entry re-verifies on a hit.
    assert svc.store.load_header(served.key)["family_record"]
    svc.store.drop_mem()
    assert svc.request(parse_function(_scaled(text, 1, 1.5))).kind == "exact"


# -- (c) what never serves as a source ------------------------------------------
def _solved_without_record(svc, fn):
    """Serve ``fn`` cold; its entry must carry no certificate record, and
    a same-profile request under another time limit (which a record
    would certify) must be solved cold."""
    cold = svc.request(fn)
    assert cold.kind == "miss"
    header = svc.store.load_header(cold.key)
    if header is not None:
        assert "family_record" not in header
    warm = svc.request(fn, ScheduleFeatures(time_limit=31, max_hops=4))
    assert warm.kind in ("family", "miss")
    assert not warm.certified
    return cold


def test_bundling_cut_sibling_is_not_a_source(svc, straight_fn, monkeypatch):
    real = scheduler_mod.bundle_schedule
    calls = []

    def cut_once(schedule):
        calls.append(schedule)
        if len(calls) == 2:  # the first phase-1 schedule (1: the input's)
            block = schedule.block_order[0]
            exc = BundlingError("synthetic template conflict")
            exc.instructions = list(schedule.instructions_in(block))[:2]
            raise exc
        return real(schedule)

    monkeypatch.setattr(scheduler_mod, "bundle_schedule", cut_once)
    cold = _solved_without_record(svc, straight_fn)
    assert cold.result.trace.counters.get("bundling_cuts") == 1


@pytest.mark.parametrize(
    "spec,quality",
    [("solve.phase1=incumbent:1", "incumbent"),
     ("solve.phase2=infeasible:1", "phase1")],
)
def test_unproven_sibling_is_not_a_source(svc, straight_fn, spec, quality):
    with faults.inject(spec):
        cold = _solved_without_record(svc, straight_fn)
    assert cold.result.quality == quality


def test_uncertified_variant_is_solved_cold_and_becomes_a_source(svc):
    # svc3~v1 raises B2, which the base optimum keeps above its bound.
    served, variant = _serve_variant(svc, _svc(3), 1)
    assert served.kind == "family"
    assert not served.certified
    assert served.result.trace.counters.get("family_certified", 0) == 0
    assert served.result.quality == "optimal"
    # Solved cold on its own model, so its entry is a source in turn: the
    # same profile under another time limit is served from it.
    assert svc.store.load_header(served.key)["family_record"]
    again = svc.request(
        parse_function(variant), ScheduleFeatures(time_limit=31, max_hops=4)
    )
    assert again.kind == "family"
    assert again.certified
    assert again.result.weighted_length_out == served.result.weighted_length_out


def test_certificate_conditions(diamond_fn, monkeypatch):
    """Raised blocks must sit at their lower bound, lowered ones at their
    range maximum, and the feasible sets must match."""
    built = []
    real = IlpScheduler._build_ilp

    def spy(self, *args):
        built.append(real(self, *args))
        return built[-1]

    monkeypatch.setattr(IlpScheduler, "_build_ilp", spy)
    record = IlpScheduler(features=FEATURES, family=[]).optimize(
        diamond_fn
    ).family_record
    ilp = built[0][0]
    arrays = ilp.model.to_arrays()  # phase 1's rows and phase 2's pins
    digest = record["digest"]
    assert certify.certifies(ilp, record)
    assert certify.reuse(ilp, arrays, digest, [record], True) is not None
    assert certify.reuse(ilp, arrays, "0" * 64, [record], True) is None
    lengths = record["lengths"]
    lower = certify.length_lower_bounds(ilp)
    for block in ilp.region.fn.blocks:
        name = block.name
        for delta, holds in (
            (1.0, lengths[name] == lower[name]),
            (-1.0, lengths[name] == ilp.lengths[name]),
        ):
            freqs = dict(record["freqs"], **{name: block.freq - delta})
            moved = dict(record, freqs=freqs)
            assert certify.certifies(ilp, moved) is holds, (name, delta)


@pytest.mark.parametrize("tamper", [
    lambda r: dict(r, phase1=r["phase1"] + [10**9]),  # no such column
    lambda r: dict(r, phase1=r["phase1"][:-1] + ["x"]),  # not a column
    # B1 (the raised block) keeps its length, so only the check that
    # the lengths are the optimum's own can reject this one.
    lambda r: dict(
        r, lengths={b: t + (b != "B1") for b, t in r["lengths"].items()}
    ),
    lambda r: "junk",
], ids=["out_of_range", "malformed", "wrong_lengths", "not_a_record"])
def test_tampered_record_is_never_trusted(svc, tamper):
    text = _svc(0)
    base = svc.request(parse_function(text))
    header = svc.store.load_header(base.key)
    _, payload = svc.store.get(base.key)
    meta = {
        "code_version": header["code_version"],
        "family_record": tamper(header["family_record"]),
    }
    svc.store.put(base.key, base.family, payload, meta)
    served = svc.request(parse_function(_scaled(text, 1, 1.5)))
    assert served.kind == "family"
    assert not served.certified
    assert served.result.verification.ok


# -- (d) serve_mix pins ----------------------------------------------------------
@pytest.mark.parametrize(
    "routine,index,certified",
    [(3, 1, False), (4, 1, False), (5, 1, False), (11, 0, False),
     (0, 0, True), (1, 0, True)],
    ids=["svc3~v1", "svc4~v1", "svc5~v1", "svc11~v0", "svc0~v0", "svc1~v0"],
)
def test_serve_mix_variant_certification(svc, routine, index, certified):
    served, variant = _serve_variant(svc, _svc(routine), index)
    assert served.kind == "family"
    assert served.certified is certified
    cold = optimize_function(parse_function(variant), FEATURES)
    assert served.result.weighted_length_out == cold.weighted_length_out
