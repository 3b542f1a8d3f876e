"""The global scheduling ILP — equations (2)–(7) of the paper.

Variable classes (Sec. 4):

* ``x[n,A,t]`` — binary: a copy of instruction n is scheduled at cycle t
  of block A; generated for A ∈ Θ(n), t ∈ G(A).
* ``a[n,B]`` — binary: a copy of n is scheduled *on all program paths
  through s(n) before B*; generated for B related to s(n) plus the
  pseudo exit block Ω. Constant-valued ``a``s (provably 0, or the pinned
  shortcut) are folded away, one of the paper's "fully automated
  optimizations to make the search space compact".
* ``B[A,t]`` — binary block-length indicators, t ∈ {0} ∪ G(A); linked
  tightly to the x variables (OASIC-style) and carrying objective (7).

Extensions (speculation, cyclic, partial-ready) hook in *before*
:meth:`SchedulingIlp.generate` by

* adding instructions (with their own Θ sets) via :meth:`add_instruction`,
* overriding an instruction's assignment right-hand side (eq. (3)) via
  ``assign_rhs`` — e.g. ``1 - usespec``,
* registering relaxation terms added to the RHS of precedence
  constraints (4)/(5) for specific dependence edges via ``relax_edge``,
* adding/removing dependence edges via ``extra_edges``/``dropped_edges``,
* relaxing specific instances of the flow equality (2) to ``<=`` via
  ``relaxed_flow`` (partial-ready code motion, Sec. 5.3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SchedulingError
from repro.ilp import LinExpr, Model, Sense, Var
from repro.machine.units import UnitKind

_EMPTY = ((), (), 0.0)

# Paths that get a chain row (the first ones of CfgInfo.dag_paths).
_CHAIN_PATHS = 4000

_UNIT_CAPS = (
    ((UnitKind.M,), "m_ports", "unitm"),
    ((UnitKind.I, UnitKind.L), "i_ports", "uniti"),
    ((UnitKind.F,), "f_ports", "unitf"),
    ((UnitKind.B,), "b_ports", "unitb"),
)


def _affine(value):
    """``(cols, coefs, constant)`` of a number, Var or LinExpr."""
    if isinstance(value, Var):
        return (value.index,), (1.0,), 0.0
    if isinstance(value, LinExpr):
        terms = value.terms
        return tuple(v.index for v in terms), tuple(terms.values()), value.constant
    return (), (), float(value)


def _rhs(lhs_const, rhs_const):
    """A row's right-hand side once every constant is moved right.

    Computed as :class:`repro.ilp.Constraint` does (``-(lhs - rhs)``), so
    the row bounds match the expression form bit for bit, signed zeros
    included.
    """
    return -(lhs_const - rhs_const)


_ZERO_RHS = _rhs(0.0, 0.0)  # -0.0: "lhs <= rhs" with no constants


def _is_const_zero(value):
    return isinstance(value, (int, float)) and value == 0


def _is_const_one(value):
    return isinstance(value, (int, float)) and value == 1


@dataclass
class _InstrInfo:
    """Per-instruction formulation data."""

    theta: set
    related: set  # a-variable domain (w/o Ω)
    source: str
    pinned: bool
    assign_rhs: object = 1  # number | Var | LinExpr


class SchedulingIlp:
    """Builds and owns the scheduling model for one region."""

    OMEGA = "__omega__"

    def __init__(self, region, lengths, machine, name="sched"):
        self.region = region
        self.lengths = lengths
        self.machine = machine
        self.model = Model(name)

        self.x = {}  # (instr, block, t) -> Var
        self.a = {}  # (instr, block) -> Var
        self.blen = {}  # (block, t) -> Var
        self.info = {}  # instr -> _InstrInfo
        # edge -> list of (term, blocks | None): term is added to the RHS of
        # the edge's precedence constraints, either everywhere (None) or only
        # for constraint instances anchored at a block in ``blocks``.
        self.relax_terms = {}
        self.local_only_edges = set()  # edges with (5) instances but no (4)
        self.extra_edges = []
        self.dropped_edges = set()
        self.relaxed_flow = set()  # (instr, pred_block, block) flow edges -> "<="
        # (edge, controlling expr): the verifier skips the edge when the
        # expression evaluates >= 0.5 in the solution (cross-iteration
        # semantics the last-copy path rule cannot express).
        self.verify_exempt = []
        # edge -> frozenset(blocks): the verifier checks the edge only
        # between copies inside those blocks (cyclic flipped edges exist
        # within the loop only; the pre-loop copy legitimately precedes
        # its in-loop operand writers).
        self.verify_scopes = {}
        self.forced_copies = []  # (instr, block, condition) copy requirements
        self.deferred_builders = []  # callables run once x/blen vars exist
        self.bundling_cuts = []  # lists of (instr, block) sets to forbid per-cycle
        self.collapsible_branches = set()  # unconditional brs of removable blocks
        self._generated = False
        # Column layout, filled by generate(): x[n,A,t] is column
        # _xbase[(n, A)] + t - 1 and len[A,t] is column _lenbase[A] + t, so
        # every window and suffix of either is a contiguous column range.
        self._xbase = {}
        self._lenbase = {}
        self._relax = None  # edge -> [(affine term, blocks | None)]
        self._no_a = set()  # (instr, block) whose a is the constant 0
        self.chain_rows = 0  # rows _chain_rows emitted

        for instr in region.instructions:
            self.info[instr] = _InstrInfo(
                theta=set(region.theta[instr]),
                related=set(region.theta_spec[instr]),
                source=region.source_block[instr],
                pinned=(instr in region.pinned),
            )

    # -- extension hooks -------------------------------------------------------
    def add_instruction(self, instr, theta, related, source, pinned=False, rhs=1):
        """Register an instruction created by an extension (e.g. an ld.s)."""
        self.info[instr] = _InstrInfo(
            theta=set(theta),
            related=set(related),
            source=source,
            pinned=pinned,
            assign_rhs=rhs,
        )

    def set_assign_rhs(self, instr, rhs):
        self.info[instr].assign_rhs = rhs

    def relax_edge(self, edge, term, blocks=None):
        """Add ``term`` to the RHS of the edge's precedence constraints.

        With ``blocks`` given, only the constraint instances anchored at one
        of those blocks are relaxed (partial-ready and cyclic motion relax
        a dependence on one *side* of the CFG only).
        """
        self.relax_terms.setdefault(edge, []).append(
            (term, frozenset(blocks) if blocks is not None else None)
        )

    def drop_edge(self, edge):
        self.dropped_edges.add(edge)

    def add_edge(self, edge):
        self.extra_edges.append(edge)

    def defer(self, builder):
        """Run ``builder(self)`` during generate(), after variable creation.

        Extensions attach before the x/B variables exist; anything that
        needs ``x_sum`` or ``blen`` registers a deferred builder instead.
        """
        self.deferred_builders.append(builder)

    # -- variable access -----------------------------------------------------------
    def instructions(self):
        return list(self.info)

    def x_var(self, instr, block, t):
        return self.x[(instr, block, t)]

    def x_sum(self, instr, block):
        """Σ_t x[n,A,t] as an expression (0 if A ∉ Θ(n))."""
        info = self.info[instr]
        if block not in info.theta:
            return 0
        x = self.x
        return LinExpr({x[(instr, block, t)]: 1.0 for t in self._grange(block)})

    def _x_cols(self, instr, block):
        """Columns of x[n,A,1..L_A]; empty when A ∉ Θ(n)."""
        base = self._xbase.get((instr, block))
        if base is None:
            return range(0)
        return range(base, base + self.lengths[block])

    def a_expr(self, instr, block):
        """The ``a[n,B]`` value: a Var, a constant, or the pinned shortcut."""
        info = self.info[instr]
        if info.pinned:
            # n sits in s(n) (if scheduled at all): complete before every
            # strict DAG-descendant of s(n) and before Ω; nowhere else.
            if block == self.OMEGA or self.region.cfg.reaches(info.source, block):
                return info.assign_rhs
            return 0
        key = (instr, block)
        var = self.a.get(key)
        if var is not None:
            return var  # Θ(n) only grows, so a created a-var stays valid
        if key in self._no_a:
            return 0
        if block != self.OMEGA and not self._a_can_be_one(instr, block):
            if self._generated:
                self._no_a.add(key)  # Θ(n) is final once generate() starts
            return 0
        var = self.a[key] = self.model.add_binary(f"a_{instr.uid}_{block}")
        return var

    def _a_can_be_one(self, instr, block):
        """Can some copy of n precede ``block``? (Θ(n) ∩ strict ancestors)"""
        cfg = self.region.cfg
        return any(
            cfg.reaches(candidate, block) for candidate in self.info[instr].theta
        )

    def _grange(self, block):
        return range(1, self.lengths[block] + 1)

    # -- dependence edges ------------------------------------------------------------
    def dep_edges(self):
        for edge in self.region.ddg.edges:
            if edge not in self.dropped_edges:
                yield edge
        for edge in self.extra_edges:
            if edge not in self.dropped_edges:
                yield edge

    @staticmethod
    def _relax_row(entries, block):
        """An edge's relaxation at ``block`` as ``(cols, -coefs, constant)``.

        ``entries`` are the edge's converted ``relax_edge`` terms. The
        coefficients come negated: the terms join the RHS of a precedence
        row, so they enter its left-hand side with a minus.
        """
        if not entries:
            return _EMPTY
        cols, coefs, constant = [], [], 0.0
        for (t_cols, t_coefs, t_const), blocks in entries:
            if blocks is None or block in blocks:
                cols += t_cols
                coefs += [-c for c in t_coefs]
                constant += t_const
        return cols, coefs, constant

    # -- model generation ---------------------------------------------------------------
    def generate(self):
        """Emit all constraints and the objective. Idempotence-guarded.

        Rows are emitted straight as column-index rows (see
        :meth:`repro.ilp.Model.add_row`); extension inputs given as Vars or
        LinExprs are converted once. The rows, their order and the column
        order are exactly those of the expression form each docstring
        states, so the solver sees the same matrix.
        """
        if self._generated:
            raise SchedulingError("model already generated")
        self._generated = True
        self._create_x_variables()
        self._create_length_variables()
        for branch in self.collapsible_branches:
            # Sec. 5.4: if the solver empties a block, its unconditional
            # branch disappears (the predecessor falls through / retargets).
            source = self.info[branch].source
            self.set_assign_rhs(branch, 1 - self.blen[(source, 0)])
        for builder in self.deferred_builders:
            builder(self)
        self._relax = {
            edge: [(_affine(term), blocks) for term, blocks in entries]
            for edge, entries in self.relax_terms.items()
        }
        self._flow_constraints()  # eq (2) + (3)
        self._global_precedence()  # eq (4)
        self._local_precedence()  # eq (5)
        self._resource_constraints()  # eq (6)
        self._length_linking()
        self._branch_constraints()
        self._forced_copy_constraints()
        self._bundling_constraints()
        self._chain_rows()
        self._objective()  # eq (7)
        return self.model

    # -- pieces ----------------------------------------------------------------------------
    def _create_x_variables(self):
        add_binary = self.model.add_binary
        for instr, info in self.info.items():
            for block in sorted(info.theta):
                self._xbase[(instr, block)] = self.model.num_variables
                for t in self._grange(block):
                    self.x[(instr, block, t)] = add_binary(
                        f"x_{instr.uid}_{block}_{t}"
                    )

    def _create_length_variables(self):
        """len[A,t] for t in 0..L_A, and Σ_t len[A,t] = 1 per block."""
        for block in self.region.fn.blocks:
            name = block.name
            length = self.lengths[name]
            base = self._lenbase[name] = self.model.num_variables
            for t in range(0, length + 1):
                self.blen[(name, t)] = self.model.add_binary(f"len_{name}_{t}")
            self.model.add_row(
                range(base, base + length + 1), None, Sense.EQ, _rhs(0.0, 1.0),
                ("onelen", name),
            )

    def _flow_constraints(self):
        """Equations (2) (inductive a/x coupling) and (3) (assignment).

        (2): ``a[n,B] (= | <=) a[n,P] + Σ_t x[n,P,t]`` per DAG edge P→B;
        (3): ``a[n,Ω] = rhs(n)``, or ``Σ_t x[n,s(n),t] = rhs(n)`` for a
        pinned n.
        """
        cfg = self.region.cfg
        add_row = self.model.add_row
        for instr, info in self.info.items():
            rhs_cols, rhs_coefs, rhs_const = _affine(info.assign_rhs)
            rhs_coefs = [-c for c in rhs_coefs]
            rhs_const = _rhs(0.0, rhs_const)
            if info.pinned:
                if (instr, info.source) not in self._xbase:
                    raise SchedulingError(
                        f"pinned instruction {instr!r} has no x variables"
                    )
                cols = self._x_cols(instr, info.source)
                add_row(
                    [*cols, *rhs_cols], [1.0] * len(cols) + rhs_coefs,
                    Sense.EQ, rhs_const, ("assign", instr.uid),
                )
                continue

            domain = sorted(info.related) + [self.OMEGA]
            source = info.source
            for block in domain:
                lhs = self.a_expr(instr, block)
                preds = (
                    cfg.dag_sinks
                    if block == self.OMEGA
                    else cfg.predecessors_in_dag(block)
                )
                for pred in preds:
                    if pred not in info.related and pred not in info.theta:
                        continue
                    # Only CFG edges that lie on some program path *through
                    # s(n)* constrain a[n,B]: the edge must leave a block at
                    # or below s(n), or enter a block at or above it.
                    on_path = (
                        pred == source
                        or cfg.reaches(source, pred)
                        or (
                            block != self.OMEGA
                            and (block == source or cfg.reaches(block, source))
                        )
                    )
                    if not on_path:
                        continue
                    a_pred = self.a_expr(instr, pred)
                    xs = self._x_cols(instr, pred)
                    in_theta = (instr, pred) in self._xbase
                    if _is_const_zero(lhs) and _is_const_zero(a_pred) and not in_theta:
                        continue
                    cols, coefs = [], []
                    if not _is_const_zero(lhs):
                        cols.append(lhs.index)
                        coefs.append(1.0)
                    if not _is_const_zero(a_pred):
                        cols.append(a_pred.index)
                        coefs.append(-1.0)
                    cols += xs
                    coefs += [-1.0] * len(xs)
                    relaxed = (instr, pred, block) in self.relaxed_flow
                    add_row(
                        cols, coefs, Sense.LE if relaxed else Sense.EQ, _ZERO_RHS,
                        ("flow", instr.uid, pred, block),
                    )
            # eq (3): every path through s(n) executes n (or its group's rhs).
            omega = self.a_expr(instr, self.OMEGA)
            add_row(
                [omega.index, *rhs_cols], [1.0, *rhs_coefs], Sense.EQ,
                rhs_const, ("assign", instr.uid),
            )

    @staticmethod
    def _as_expr(value):
        if isinstance(value, (LinExpr, Var)):
            return value if isinstance(value, LinExpr) else value.to_expr()
        return LinExpr(constant=float(value))

    def _global_precedence(self):
        """Equation (4): a[n,A] <= a[m,A] (+ relaxations) for deps (m, n)."""
        add_row = self.model.add_row
        for edge in self.dep_edges():
            if edge.src not in self.info or edge.dst not in self.info:
                continue
            if edge in self.local_only_edges:
                continue
            info_m, info_n = self.info[edge.src], self.info[edge.dst]
            common = (info_m.related | {self.OMEGA}) & (
                info_n.related | {self.OMEGA}
            )
            common.discard(self.OMEGA)  # both sides are fixed there
            entries = self._relax.get(edge)
            for block in sorted(common):
                lhs = self.a_expr(edge.dst, block)
                rhs = self.a_expr(edge.src, block)
                if _is_const_zero(lhs):
                    continue
                if isinstance(rhs, (int, float)) and rhs >= 1:
                    continue  # trivially satisfied (binary lhs)
                l_cols, l_coefs, l_const = _affine(lhs)
                r_cols, r_coefs, r_const = _affine(rhs)
                x_cols, x_coefs, x_const = self._relax_row(entries, block)
                add_row(
                    [*l_cols, *r_cols, *x_cols],
                    [*l_coefs, *[-c for c in r_coefs], *x_coefs],
                    Sense.LE,
                    _rhs(l_const, r_const + x_const),
                    ("gprec", edge.src.uid, edge.dst.uid, block),
                )

    def _local_precedence(self):
        """Equation (5): tight OASIC in-block precedence constraints.

        Per cycle t: ``Σ_{t'<=t} x[n,A,t'] + Σ_{t'>=t-lat+1} x[m,A,t'] <= 1``
        (+ relaxations) for each dependence m → n with latency lat.
        """
        add_row = self.model.add_row
        xbase = self._xbase
        for edge in self.dep_edges():
            if edge.src not in self.info or edge.dst not in self.info:
                continue
            info_m, info_n = self.info[edge.src], self.info[edge.dst]
            lat = edge.latency
            entries = self._relax.get(edge)
            for block in sorted(info_m.theta & info_n.theta):
                x_cols, x_coefs, x_const = self._relax_row(entries, block)
                rhs = _rhs(0.0, 1.0 + x_const)
                length = self.lengths[block]
                n0 = xbase[(edge.dst, block)] - 1  # x[n,A,t] is column n0 + t
                m0 = xbase[(edge.src, block)] - 1
                for t in range(1, length + 1):
                    m_lo = max(t - lat + 1, 1)
                    if m_lo > length:
                        continue
                    cols = [*range(n0 + 1, n0 + t + 1), *range(m0 + m_lo, m0 + length + 1)]
                    width = len(cols)
                    if x_cols:
                        cols += x_cols
                        coefs = [1.0] * width + x_coefs
                    else:
                        coefs = None
                    add_row(
                        cols, coefs, Sense.LE, rhs,
                        ("lprec", edge.src.uid, edge.dst.uid, block, t),
                    )

    def _resource_constraints(self):
        """Equation (6) + unit-class limits for the Itanium 2 dispersal.

        Per (block, cycle): the issue width (L-unit ops weigh 2), then one
        row per unit class whose hosted instructions exceed its ports.
        """
        ports = self.machine.ports
        add_row = self.model.add_row
        hosting = {}
        for instr, info in self.info.items():
            for block in info.theta:
                hosting.setdefault(block, []).append(instr)
        for block, instrs in hosting.items():
            # x[i,block,t] is column base + t.
            bases = [self._xbase[(i, block)] - 1 for i in instrs]
            weights = [2.0 if i.unit is UnitKind.L else 1.0 for i in instrs]
            caps = []
            for kinds, port, tag in _UNIT_CAPS:
                members = [b for i, b in zip(instrs, bases) if i.unit in kinds]
                cap = getattr(ports, port)
                if len(members) > cap:
                    caps.append((members, cap, tag))
            for t in self._grange(block):
                add_row(
                    [b + t for b in bases], weights, Sense.LE,
                    _rhs(0.0, ports.issue_width), ("width", block, t),
                )
                for members, cap, tag in caps:
                    add_row(
                        [b + t for b in members], None, Sense.LE,
                        _rhs(0.0, cap), (tag, block, t),
                    )

    def _length_linking(self):
        """x[n,A,t] == 1 forces length(A) >= t.

        One row per x variable against the block-length suffix sum,
        ``x[n,A,t] <= Σ_{t'>=t} len[A,t']`` (the OASIC-grade LP bound).
        """
        add_row = self.model.add_row
        lengths, lenbase = self.lengths, self._lenbase
        for (instr, block), base in self._xbase.items():
            length = lengths[block]
            first = lenbase[block]
            for t in range(1, length + 1):
                add_row(
                    [base + t - 1, *range(first + t, first + length + 1)],
                    [1.0] + [-1.0] * (length - t + 1),
                    Sense.LE, _ZERO_RHS, ("len_link", instr.uid, block, t),
                )

    def _branch_constraints(self):
        """Branches sit exactly in the last cycle of their block (Sec. 5.4):
        ``x[br,A,t] <= len[A,t]``."""
        add_row = self.model.add_row
        for instr, info in self.info.items():
            if not instr.is_branch:
                continue
            block = info.source
            base = self._xbase.get((instr, block))
            if base is None:
                continue
            first = self._lenbase[block]
            for t in self._grange(block):
                add_row(
                    [base + t - 1, first + t], [1.0, -1.0], Sense.LE, _ZERO_RHS,
                    ("br_last", instr.uid, t),
                )

    def _forced_copy_constraints(self):
        """Extensions may force a copy in a block (cyclic motion latches):
        ``Σ_t x[n,A,t] >= condition``."""
        for instr, block, condition in self.forced_copies:
            cols = self._x_cols(instr, block)
            c_cols, c_coefs, c_const = _affine(condition)
            self.model.add_row(
                [*cols, *c_cols], [1.0] * len(cols) + [-c for c in c_coefs],
                Sense.GE, _rhs(0.0, c_const), ("force", instr.uid, block),
            )

    def _bundling_constraints(self):
        """Forbid instruction sets no template sequence can encode (4.2)."""
        for idx, members in enumerate(self.bundling_cuts):
            self._emit_bundling_cut(idx, members)

    def append_bundling_cut(self, members):
        """Add one Sec. 4.2 cut to an already-generated model.

        The cut loop only discovers violated instruction sets after a
        solve, so re-solves append the few new rows to the built model
        (and its cached matrix form) instead of regenerating the whole
        formulation from scratch.
        """
        if not self._generated:
            raise SchedulingError(
                "append_bundling_cut requires a generated model"
            )
        idx = len(self.bundling_cuts)
        self.bundling_cuts.append(list(members))
        self._emit_bundling_cut(idx, members)

    def _emit_bundling_cut(self, idx, members):
        """``Σ_{n in S} x[n,A,t] <= |S| - 1`` for every cycle t of A."""
        by_block = {}
        for instr, block in members:
            by_block.setdefault(block, []).append(instr)
        for block, instrs in by_block.items():
            if len(instrs) < 2:
                continue
            bases = [
                self._xbase[(i, block)] - 1
                for i in instrs
                if (i, block) in self._xbase
            ]
            if len(bases) != len(instrs):
                continue
            for t in self._grange(block):
                self.model.add_row(
                    [b + t for b in bases], None, Sense.LE,
                    _rhs(0.0, len(bases) - 1),
                    (f"bundle_cut{idx}", block, t),
                )

    def _chain_rows(self):
        """Per-path dependence-chain rows: implied lower bounds on the
        total length of each program path.

        For a DAG path P (the verifier's walk, first ``_CHAIN_PATHS``
        paths) let w be the largest number of latency >= 1 edges on one
        dependence chain whose instructions all have their source block
        on P. The row is ``Σ_{A∈P} Σ_t t·len[A,t] >= 1 + w``, emitted when
        w >= 1.

        Valid for every schedule the verifier accepts: every path through
        s(n) executes a copy of n, and the last copy of n follows the last
        copy of m on the path, ``lat`` cycles later within one block. On
        P's concatenated timeline the last copies of a chain's members
        therefore sit at cycles that rise by at least one per weighted
        edge, starting at cycle 1. Only facts that hold in every solution
        enter: instructions whose assignment right-hand side is the
        constant 1, and dependence edges that run forward in program
        order and carry no relaxation, verify scope, verify exemption or
        local-only status.
        """
        cfg = self.region.cfg
        exempt = {edge for edge, _expr in self.verify_exempt}
        index = {}  # eligible instr -> position in its source block
        for block in self.region.fn.blocks:
            for pos, instr in enumerate(block.instructions):
                info = self.info.get(instr)
                if info is not None and _is_const_one(info.assign_rhs):
                    index[instr] = pos
        preds = {}  # instr -> {pred: weight}
        for edge in self.dep_edges():
            src, dst = edge.src, edge.dst
            if src not in index or dst not in index:
                continue
            if (
                edge in self.relax_terms
                or edge in self.verify_scopes
                or edge in exempt
                or edge in self.local_only_edges
            ):
                continue
            a, b = self.info[src].source, self.info[dst].source
            if not (index[src] < index[dst] if a == b else cfg.reaches(a, b)):
                continue  # not forward in program order
            weight = 1 if edge.latency >= 1 else 0
            into = preds.setdefault(dst, {})
            if into.get(src, -1) < weight:
                into[src] = weight
        if not preds:
            return
        chained = preds.keys() | {m for into in preds.values() for m in into}
        by_block = {}  # block -> chain members in program order
        for instr in index:  # built in program order
            if instr in chained:
                by_block.setdefault(self.info[instr].source, []).append(instr)
        paths, _exhaustive = cfg.dag_paths(_CHAIN_PATHS)
        for number, path in enumerate(paths):
            depth = {}
            for block in path:
                for instr in by_block.get(block, ()):
                    best = 0
                    for pred, weight in preds.get(instr, {}).items():
                        d = depth.get(pred)
                        if d is not None and d + weight > best:
                            best = d + weight
                    depth[instr] = best
            longest = max(depth.values(), default=0)
            if longest < 1:
                continue
            cols, coefs = [], []
            for block in path:
                first = self._lenbase[block]
                cols += range(first + 1, first + self.lengths[block] + 1)
                coefs += range(1, self.lengths[block] + 1)
            self.model.add_row(
                cols, [float(c) for c in coefs], Sense.GE, _rhs(0.0, 1.0 + longest),
                ("chain", number),
            )
            self.chain_rows += 1

    def _objective(self):
        """Equation (7): frequency-weighted sum of block lengths."""
        terms = {}
        for block in self.region.fn.blocks:
            for t in self._grange(block.name):
                coef = float(block.freq * t)
                if coef != 0.0:
                    terms[self.blen[(block.name, t)]] = coef
        self.model.set_objective(LinExpr(terms))
