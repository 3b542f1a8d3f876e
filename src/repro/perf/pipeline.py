"""In-order Itanium-2-like pipeline simulator.

This is the hardware substitute for the paper's 1.4 GHz Itanium 2 runs.
Model (deliberately at the level the paper's analysis argues):

* the core issues one *instruction group* (schedule cycle) per clock, in
  order; if any instruction in the group has an operand that is not yet
  available, the whole group stalls until it is (scoreboard semantics —
  "The execution pipeline stalls if an operand of an instruction is not
  yet available", paper Sec. 1);
* register results become available ``latency`` cycles after issue;
  loads may additionally miss: a deterministic per-site hash decides
  misses so the input and output schedule see the *same* miss events;
* taken branches whose edge probability is below 0.5 pay the
  misprediction penalty (static-predictor model);
* a used speculation check very rarely fails (paper: < 0.001 %) and then
  pays the recovery branch penalty;
* empty (collapsed) blocks cost nothing.

The simulator therefore charges exactly the cost the ILP objective cannot
see — cross-block latencies and cache stalls — which is why simulated
speedups land at a fraction of the static reduction, as in the paper
("we currently only optimize the unstalled execution time which is about
half of the total execution time", Sec. 6.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.itanium2 import ITANIUM2


@dataclass
class SimulationResult:
    cycles: int
    instructions: int
    issue_cycles: int
    stall_cycles: int
    memory_stall_cycles: int
    branch_penalty_cycles: int

    @property
    def achieved_ipc(self):
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def unstalled_fraction(self):
        return self.issue_cycles / self.cycles if self.cycles else 0.0


def _site_hash(trace_index, uid, salt):
    """Deterministic pseudo-random in [0, 1) keyed by trace position/site."""
    value = (trace_index * 1000003 + uid * 7919 + salt * 104729) & 0xFFFFFFFF
    value = (value * 2654435761) & 0xFFFFFFFF
    value ^= value >> 16
    value = (value * 2246822519) & 0xFFFFFFFF
    return ((value >> 8) & 0xFFFFFF) / float(1 << 24)


class PipelineSimulator:
    """Execute a schedule over a block trace and count cycles.

    Parameters
    ----------
    machine:
        Machine description supplying the miss/misprediction penalties.
    miss_rate:
        Default probability that a load misses L1D (per dynamic load).
        Individual loads can override it with a ``miss=`` annotation.
    l2_miss_rate:
        Probability that an L1D miss also misses L2.
    check_failure_rate:
        Probability a speculation check branches to recovery.
    """

    def __init__(
        self,
        machine=ITANIUM2,
        miss_rate=0.03,
        l2_miss_rate=0.05,
        check_failure_rate=0.00001,
    ):
        self.machine = machine
        self.miss_rate = miss_rate
        self.l2_miss_rate = l2_miss_rate
        self.check_failure_rate = check_failure_rate
        self._layout_cache = {}

    def run(self, schedule, fn, trace):
        clock = 0
        issue_cycles = 0
        stall_cycles = 0
        memory_stalls = 0
        branch_penalties = 0
        instructions = 0
        ready = {}  # Register -> absolute cycle the value becomes available

        for index, block_name in enumerate(trace):
            length = schedule.block_length(block_name)
            if length == 0:
                continue  # collapsed block: falls through for free
            cycles = schedule.cycles_of(block_name)
            for t in range(1, length + 1):
                group = cycles.get(t, ())
                issue_at = clock
                load_sourced_wait = 0
                for placed in group:
                    for src in placed.regs_read():
                        avail = ready.get(src, 0)
                        if avail > issue_at:
                            issue_at = avail
                        producer_was_load = ready.get(("load", src), 0)
                        if avail > clock and producer_was_load >= avail:
                            load_sourced_wait = max(
                                load_sourced_wait, avail - clock
                            )
                stall = issue_at - clock
                if stall > 0:
                    stall_cycles += stall
                    memory_stalls += min(stall, load_sourced_wait)
                clock = issue_at + 1
                issue_cycles += 1
                for placed in group:
                    if placed.is_nop:
                        continue
                    instructions += 1
                    latency = max(placed.latency, 1)
                    if placed.is_load:
                        latency += self._memory_penalty(index, placed)
                    for dst in placed.regs_written():
                        ready[dst] = issue_at + latency
                        if placed.is_load:
                            ready[("load", dst)] = issue_at + latency
                        else:
                            ready.pop(("load", dst), None)
                    if placed.is_check:
                        site = placed.root_origin.uid
                        if (
                            _site_hash(index, site, 7)
                            < self.check_failure_rate
                        ):
                            penalty = self.machine.spec_check_failure_penalty
                            clock += penalty
                            branch_penalties += penalty
            # Branch resolution: taken branches cost the front-end bubble,
            # statically mispredicted edges additionally flush the pipe.
            # Both are schedule-independent — the stalled time the paper
            # says its optimization does not touch (Sec. 6.2).
            if index + 1 < len(trace):
                next_block = trace[index + 1]
                penalty = self._branch_penalty(fn, block_name, next_block)
                if not self._falls_through(fn, block_name, next_block):
                    penalty += self.machine.taken_branch_bubble
                clock += penalty
                branch_penalties += penalty

        return SimulationResult(
            cycles=clock,
            instructions=instructions,
            issue_cycles=issue_cycles,
            stall_cycles=stall_cycles,
            memory_stall_cycles=memory_stalls,
            branch_penalty_cycles=branch_penalties,
        )

    # -- internals -----------------------------------------------------------
    def _memory_penalty(self, trace_index, placed):
        """Extra load latency from cache misses (deterministic per site)."""
        site = placed.root_origin.uid
        rate = float(placed.annotations.get("miss", self.miss_rate))
        draw = _site_hash(trace_index, site, 1)
        if draw >= rate:
            return 0
        penalty = self.machine.l1d_miss_penalty
        if _site_hash(trace_index, site, 2) < self.l2_miss_rate:
            penalty += self.machine.l2_miss_penalty
        return penalty

    def _falls_through(self, fn, block_name, next_block):
        """Is ``next_block`` the layout successor of ``block_name``?"""
        names = self._layout_cache.get(id(fn))
        if names is None:
            names = [b.name for b in fn.blocks]
            self._layout_cache[id(fn)] = names
        try:
            at = names.index(block_name)
        except ValueError:
            return False
        return at + 1 < len(names) and names[at + 1] == next_block

    def _branch_penalty(self, fn, block_name, next_block):
        """Static-predictor model: taking an unlikely edge costs the flush."""
        edges = fn.out_edges(block_name)
        if len(edges) < 2:
            return 0
        taken = next((e for e in edges if e.dst == next_block), None)
        if taken is None:
            return 0
        if fn.edge_probability(taken) < 0.5:
            return self.machine.branch_misp_penalty
        return 0
