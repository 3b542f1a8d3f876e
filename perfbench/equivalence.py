"""Independent equivalence check: run input and output on the interpreter.

The optimizer's own verifier trusts its dependence graph; this check
does not. Both routines execute on :mod:`repro.ir.interp` over a few
seeded inputs and must agree on the block trace, the live-out registers,
the final memory image and the per-address sequence of stored values.
Register and memory state is compared only when both runs return (a
truncated loop may legally differ at the cut), as in the repository's
differential tests.
"""

from __future__ import annotations

from repro.ir.interp import Interpreter
from repro.ir.parser import parse_functions

SEEDS = (0, 1, 2)


def _compare(source, target, seed, want, got, compare_trace):
    if compare_trace and got.block_trace != want.block_trace:
        return f"seed {seed}: block trace diverged"
    if got.returned != want.returned:
        return f"seed {seed}: returned {want.returned} vs {got.returned}"
    if not want.returned:
        return None
    want_out = want.live_out_state(source)
    got_out = got.live_out_state(target)
    if got_out != want_out:
        regs = sorted(r.name for r in want_out if want_out[r] != got_out.get(r))
        return f"seed {seed}: live-out mismatch ({', '.join(regs[:4])})"
    if got.memory != want.memory:
        return f"seed {seed}: final memory diverged"
    if got.store_sequences() != want.store_sequences():
        return f"seed {seed}: store value sequences diverged"
    return None


def check_functions(source, target, compare_trace=True, seeds=SEEDS):
    """First divergence between two routines as a string, or ``None``."""
    interp = Interpreter(record_stores=True)
    for seed in seeds:
        want = interp.run_function(source, seed=seed)
        got = interp.run_function(target, seed=seed)
        problem = _compare(source, target, seed, want, got, compare_trace)
        if problem:
            return problem
    return None


def check_texts(input_text, output_text):
    """Compare every routine of an input file with the emitted file."""
    sources = parse_functions(input_text)
    try:
        targets = parse_functions(output_text)
    except Exception as exc:  # an unparseable emission is a failed item
        return f"emitted text does not parse: {exc}"
    if [f.name for f in sources] != [f.name for f in targets]:
        return "emitted routines differ from the input routines"
    for source, target in zip(sources, targets):
        problem = check_functions(source, target)
        if problem:
            return problem if len(sources) == 1 else f"{source.name}: {problem}"
    return None


def check_pipelined(result):
    """Compare each shipped software-pipelined loop with its source.

    Block traces differ by construction (prologue/kernel/epilogue), so
    only returned status, live-outs, memory and stores are compared.
    Returns ``(passing loops, problems)``.
    """
    passing = 0
    problems = []
    for outcome in result.swp_outcomes:
        if outcome.pipelined_fn is None:
            continue
        problem = check_functions(
            result.fn, outcome.pipelined_fn, compare_trace=False
        )
        if problem:
            problems.append(f"swp {outcome.loop_header}: {problem}")
        else:
            passing += 1
    return passing, problems
