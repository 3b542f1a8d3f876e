"""The ILP model container: variables, constraints, objective, matrix form."""

from __future__ import annotations

import enum
import io

import numpy as np
from scipy import sparse

from repro.errors import IlpError
from repro.ilp.expr import LinExpr, Var


class Sense(enum.Enum):
    """Relational sense of a constraint."""

    LE = "<="
    GE = ">="
    EQ = "="


class Constraint:
    """A linear constraint ``expr (<=|>=|=) rhs`` in normalized form.

    Normalization moves every variable term to the left-hand side and every
    constant to the right, so ``expr`` has constant 0 and ``rhs`` is a float.
    """

    __slots__ = ("expr", "sense", "rhs", "name")

    def __init__(self, expr, sense, rhs, name=""):
        self.expr = expr
        self.sense = sense
        self.rhs = float(rhs)
        self.name = name

    @classmethod
    def _from_sides(cls, lhs, rhs, sense):
        diff = lhs - rhs
        rhs_const = -diff.constant
        return cls(LinExpr(diff.terms), sense, rhs_const)

    def satisfied_by(self, assignment, tol=1e-6):
        """Check the constraint under ``assignment`` with tolerance ``tol``."""
        lhs = self.expr.value(assignment)
        if self.sense is Sense.LE:
            return lhs <= self.rhs + tol
        if self.sense is Sense.GE:
            return lhs >= self.rhs - tol
        return abs(lhs - self.rhs) <= tol

    def _key(self):
        terms = sorted((var.index, coef) for var, coef in self.expr.terms.items())
        return self.sense, self.rhs, self.name, terms

    def __eq__(self, other):
        if not isinstance(other, Constraint):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash((self.sense, self.rhs, self.name))

    def __repr__(self):
        label = f"{self.name}: " if self.name else ""
        return f"{label}{self.expr!r} {self.sense.value} {self.rhs:g}"


class Model:
    """A mixed-integer linear program under construction.

    Only minimization is supported (the scheduler always minimizes); callers
    wanting maximization negate their objective. Variables are created
    through :meth:`add_var` / :meth:`add_binary` and owned by the model.

    Constraints live in one row store: each row is a run of column indices
    and coefficients plus its row bounds. :meth:`add_row` appends a row
    given by column indices; :meth:`add_constraint` converts an expression
    comparison into a row once, when it is added. :meth:`to_arrays` builds
    the CSR straight from the stored arrays.
    """

    def __init__(self, name="model"):
        self.name = name
        self.variables = []
        self.objective = LinExpr()
        self._names = set()
        # Row i spans _cols/_vals[_ptr[i]:_ptr[i + 1]] with bounds
        # _lo[i] <= row <= _hi[i]; names are str or tuples of parts that
        # _row_name joins lazily (only export and tests read them).
        self._cols = []
        self._vals = []
        self._ptr = [0]
        self._lo = []
        self._hi = []
        self._row_names = []
        # Matrix-form cache: appending rows (the cut loop, phase-2 length
        # pins) converts only the new rows and stacks them under the CSR.
        self._matrix_cache = None

    # -- construction ------------------------------------------------------
    def add_var(self, name, lb=0.0, ub=None, is_integer=False):
        """Create and register a variable; names must be unique."""
        if name in self._names:
            raise IlpError(f"duplicate variable name {name!r}")
        if lb is not None and ub is not None and lb > ub:
            raise IlpError(f"variable {name!r} has empty domain [{lb}, {ub}]")
        var = Var(len(self.variables), name, lb, ub, is_integer)
        self.variables.append(var)
        self._names.add(name)
        self._matrix_cache = None  # column count changed
        return var

    def add_binary(self, name):
        return self.add_var(name, lb=0.0, ub=1.0, is_integer=True)

    def add_row(self, cols, coefs, sense, rhs, name=""):
        """Append the row ``Σ coefs[k]·x[cols[k]] (sense) rhs``.

        ``cols`` is a sequence of column indices; ``coefs`` a sequence of
        the same length, or ``None`` for all ones. A column may repeat (its
        coefficients are summed) and zero sums are dropped when the matrix
        is built. ``name`` is a string or a tuple of parts joined by ``_``.
        """
        self._cols += cols
        if coefs is None:
            self._vals += [1.0] * len(cols)
        else:
            self._vals += coefs
        self._ptr.append(len(self._cols))
        if sense is Sense.LE:
            self._lo.append(-np.inf)
            self._hi.append(rhs)
        elif sense is Sense.GE:
            self._lo.append(rhs)
            self._hi.append(np.inf)
        else:
            self._lo.append(rhs)
            self._hi.append(rhs)
        self._row_names.append(name)

    def add_constraint(self, constraint, name=""):
        """Register a constraint built with ``<=``, ``>=`` or ``==``."""
        if not isinstance(constraint, Constraint):
            raise IlpError(
                "add_constraint expects an expression comparison, got "
                f"{constraint!r} — a plain bool means both sides were constants"
            )
        if name:
            constraint.name = name
        terms = constraint.expr.terms
        self.add_row(
            [var.index for var in terms],
            list(terms.values()),
            constraint.sense,
            constraint.rhs,
            constraint.name,
        )
        return constraint

    def set_objective(self, expr):
        """Set the (minimized) objective."""
        if isinstance(expr, Var):
            expr = expr.to_expr()
        self.objective = expr

    # -- introspection -----------------------------------------------------
    @property
    def num_variables(self):
        return len(self.variables)

    @property
    def num_constraints(self):
        return len(self._lo)

    @property
    def num_integer_variables(self):
        return sum(1 for v in self.variables if v.is_integer)

    def _row_name(self, index):
        name = self._row_names[index]
        return name if isinstance(name, str) else "_".join(map(str, name))

    @property
    def constraints(self):
        """Every row as a :class:`Constraint` (built on each access)."""
        variables = self.variables
        rows = []
        for i, (lo, hi) in enumerate(zip(self._lo, self._hi)):
            terms = {}
            for k in range(self._ptr[i], self._ptr[i + 1]):
                var = variables[self._cols[k]]
                coef = terms.get(var, 0.0) + self._vals[k]
                if coef == 0.0:
                    terms.pop(var, None)
                else:
                    terms[var] = coef
            if lo == hi:
                sense, rhs = Sense.EQ, lo
            elif lo == -np.inf:
                sense, rhs = Sense.LE, hi
            else:
                sense, rhs = Sense.GE, lo
            rows.append(Constraint(LinExpr(terms), sense, rhs, self._row_name(i)))
        return rows

    def check_solution(self, assignment, tol=1e-6):
        """Return the list of constraints violated by ``assignment``."""
        return [c for c in self.constraints if not c.satisfied_by(assignment, tol)]

    # -- matrix form -------------------------------------------------------
    def to_arrays(self):
        """Convert to matrix form for the numeric backends.

        Returns a dict with objective vector ``c`` (dense), constraint matrix
        ``A`` (CSR), row bound vectors ``b_lo``/``b_hi`` (so LE rows have
        ``b_lo = -inf``, GE rows ``b_hi = +inf``, EQ rows both equal),
        variable bounds ``lb``/``ub`` and the boolean ``integrality`` mask.
        """
        n = len(self.variables)
        c = np.zeros(n)
        for var, coef in self.objective.terms.items():
            c[var.index] = coef

        rows = len(self._lo)
        cache = self._matrix_cache
        if cache is None:
            variables = self.variables
            cache = self._matrix_cache = {
                "matrix": self._csr(0, rows),
                "rows": rows,
                "lb": np.array([-np.inf if v.lb is None else v.lb for v in variables]),
                "ub": np.array([np.inf if v.ub is None else v.ub for v in variables]),
                "integrality": np.array([v.is_integer for v in variables]),
            }
        elif cache["rows"] < rows:
            delta = self._csr(cache["rows"], rows)
            cache["matrix"] = sparse.vstack([cache["matrix"], delta], format="csr")
            cache["rows"] = rows

        # Vectors are fresh or copied so callers may edit them (the presolve
        # does); the CSR is shared and treated as immutable by every backend.
        return {
            "c": c,
            "A": cache["matrix"],
            "b_lo": np.array(self._lo, dtype=float),
            "b_hi": np.array(self._hi, dtype=float),
            "lb": cache["lb"].copy(),
            "ub": cache["ub"].copy(),
            "integrality": cache["integrality"].copy(),
        }

    def _csr(self, start, stop):
        """Rows ``start:stop`` as a canonical CSR block.

        Canonical means sorted column indices, repeated columns summed and
        zero coefficients dropped — the form an expression's term dict
        would give.
        """
        first, last = self._ptr[start], self._ptr[stop]
        indptr = np.array(self._ptr[start : stop + 1], dtype=np.int32) - first
        matrix = sparse.csr_matrix(
            (
                np.array(self._vals[first:last], dtype=float),
                np.array(self._cols[first:last], dtype=np.int32),
                indptr,
            ),
            shape=(stop - start, len(self.variables)),
        )
        matrix.sum_duplicates()
        matrix.eliminate_zeros()
        return matrix

    # -- export ------------------------------------------------------------
    def write_lp(self, path=None):
        """Render in CPLEX LP format; return the text (and write if ``path``).

        Useful for debugging the scheduler's formulations with external
        solvers and for regression-testing model structure.
        """
        out = io.StringIO()
        out.write(f"\\ model {self.name}\n")
        out.write("Minimize\n obj:")
        if not self.objective.terms:
            out.write(" 0")
        for var, coef in sorted(
            self.objective.terms.items(), key=lambda kv: kv[0].index
        ):
            out.write(f" {coef:+g} {var.name}")
        out.write("\nSubject To\n")
        for i, con in enumerate(self.constraints):
            label = con.name or f"c{i}"
            out.write(f" {label}:")
            for var, coef in sorted(con.expr.terms.items(), key=lambda kv: kv[0].index):
                out.write(f" {coef:+g} {var.name}")
            out.write(f" {con.sense.value} {con.rhs:g}\n")
        out.write("Bounds\n")
        for var in self.variables:
            lo = "-inf" if var.lb is None else f"{var.lb:g}"
            hi = "+inf" if var.ub is None else f"{var.ub:g}"
            out.write(f" {lo} <= {var.name} <= {hi}\n")
        integers = [v.name for v in self.variables if v.is_integer]
        if integers:
            out.write("Generals\n")
            for name in integers:
                out.write(f" {name}\n")
        out.write("End\n")
        text = out.getvalue()
        if path is not None:
            with open(path, "w") as handle:
                handle.write(text)
        return text

    def __repr__(self):
        return (
            f"Model({self.name!r}, vars={self.num_variables}, "
            f"constraints={self.num_constraints}, "
            f"integers={self.num_integer_variables})"
        )
