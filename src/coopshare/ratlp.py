"""Exact rational linear programming on dense simplex tableaus.

Every quantity is exact, a `fractions.Fraction` or an integer over a
stated positive denominator; nothing is ever rounded.  The solver is a
two-phase dense simplex with Bland's smallest-index rule, so results are
deterministic and cycling is impossible.  Internally the tableau is kept
fraction-free (integer entries sharing one positive divisor), which is
much faster than per-entry Fraction arithmetic while remaining exact.

`WarmStart` re-solves a program as its right-hand side moves; `LazyRows` solves
the dual of a program whose `>=` rows arrive in batches (the nucleolus
levels), each row a new column, each re-solve resuming from the last basis,
and carries its tableau into the next level, so phase 1 starts from there.
Both return integers, with no `Fraction` built: `WarmStart.move` the value,
`LazyRows.solve` the point, the dual's solution and the tight rows.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, sub
from typing import Iterable, Optional, Sequence

from .errors import InputError, InternalError

LE, EQ, GE = "<=", "=", ">="
NONNEG, FREE = "nonneg", "free"
MAX, MIN = "max", "min"

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def _shown(value, show=str) -> str:
    """show(value) for an error text, or a stand-in when a number in value
    has more digits than the interpreter converts to text."""
    try:
        return show(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


def rat(value) -> Fraction:
    """Parse an exact rational from an int, Fraction, or "p/q" string.

    Floats (and float-looking strings) are rejected: exactness is a
    contract, not a best effort.
    """
    if isinstance(value, bool):
        raise InputError(f"not a rational number: {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise InputError(
            f"float literal {value!r} rejected: use an integer or a 'p/q' string"
        )
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL_RE.match(text):
            raise InputError(
                f"malformed rational {value!r}: expected 'p' or 'p/q' with q > 0"
            )
        try:
            return Fraction(text)
        except ValueError:  # more digits than int() converts
            raise InputError(
                f"rational of {len(text)} characters is too long to read"
            ) from None
    raise InputError(f"not a rational number: {_shown(value, repr)}")


@dataclass(frozen=True)
class LinearProgram:
    """A dense LP: optimize objective over rows `coeffs <rel> rhs`.

    Entries are exact rationals, either `int` or `Fraction`: programs the
    package builds itself use integer 0/1 rows as they are, while
    `linear_program` validates programs from outside input.  Variables
    are either nonnegative or free (`domains`); free variables are split
    internally, callers never see the split.
    """

    sense: str
    objective: tuple[Fraction, ...]
    rows: tuple[tuple[Fraction, ...], ...]
    relations: tuple[str, ...]
    rhs: tuple[Fraction, ...]
    domains: tuple[str, ...]

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    @property
    def num_rows(self) -> int:
        return len(self.rows)


def linear_program(
    sense: str,
    objective: Sequence,
    constraints: Iterable[tuple],
    domains: Optional[Sequence[str]] = None,
) -> LinearProgram:
    """Build and validate a LinearProgram.

    `constraints` is an iterable of (coefficients, relation, rhs); the
    default domain is nonnegative for every variable.
    """
    if sense not in (MAX, MIN):
        raise InputError(f"sense must be {MAX!r} or {MIN!r}, got {sense!r}")
    obj = tuple(rat(c) for c in objective)
    n = len(obj)
    if n == 0:
        raise InputError("a linear program needs at least one variable")
    rows, rels, rhs = [], [], []
    for k, item in enumerate(constraints):
        try:
            coeffs, rel, b = item
        except (TypeError, ValueError):
            raise InputError(f"constraint {k}: expected (coeffs, relation, rhs)")
        row = tuple(rat(c) for c in coeffs)
        if len(row) != n:
            raise InputError(
                f"constraint {k}: width {len(row)} != variable count {n}"
            )
        if rel not in (LE, EQ, GE):
            raise InputError(f"constraint {k}: unknown relation {rel!r}")
        rows.append(row)
        rels.append(rel)
        rhs.append(rat(b))
    if domains is None:
        doms = tuple([NONNEG] * n)
    else:
        doms = tuple(domains)
        if len(doms) != n or any(d not in (NONNEG, FREE) for d in doms):
            raise InputError("domains must list 'nonneg'/'free' per variable")
    return LinearProgram(sense, obj, tuple(rows), tuple(rels), tuple(rhs), doms)


@dataclass(frozen=True)
class LpResult:
    """Outcome of solve_lp.

    For optimal programs, `x` is a basic (vertex) solution, `duals` hold
    one multiplier per constraint certifying optimality through exact
    complementary slackness, and `tight` marks rows active at `x`.  Duals
    follow the sense: in a max program a `<=` row's dual is nonnegative
    and a `>=` row's nonpositive (the reverse in a min program), so the
    binding `>=` rows of a max program are those with a negative dual.
    """

    status: str
    value: Optional[Fraction] = None
    x: Optional[tuple[Fraction, ...]] = None
    duals: Optional[tuple[Fraction, ...]] = None
    tight: Optional[tuple[bool, ...]] = None


OPTIMAL, INFEASIBLE, UNBOUNDED = "optimal", "infeasible", "unbounded"


# ---------------------------------------------------------------------------
# fraction-free tableau core
# ---------------------------------------------------------------------------


class _Tableau:
    """Integer tableau with one shared positive divisor.

    True entries are mat[i][j] / div.  Rows 0..m-1 are constraints with
    the right-hand side in the final column; the last two rows are the
    phase-1 and phase-2 reduced-cost rows, updated alongside.
    """

    def __init__(self, rows, cost1, cost2, basis):
        self.mat = [list(r) for r in rows] + [list(cost1), list(cost2)]
        self.m = len(rows)
        self.basis = list(basis)
        self.div = 1

    def pivot(self, r: int, c: int) -> None:
        mat = self.mat
        prow = mat[r]
        p = prow[c]
        if p <= 0:
            raise InternalError("pivot element must be positive")
        d = self.div
        unit = p == d == 1  # every pivot, when the rows are totally unimodular
        for i in range(len(mat)):
            if i == r:
                continue
            row = mat[i]
            f = row[c]
            if f == 0:
                if p != d:
                    mat[i] = [a * p // d for a in row]
            elif unit and f in (1, -1):  # every constraint row of a transport tableau
                mat[i] = list(map(sub if f == 1 else add, row, prow))
            elif unit:
                mat[i] = [a - f * b for a, b in zip(row, prow)]
            else:
                mat[i] = [(p * a - f * b) // d for a, b in zip(row, prow)]
        self.div = p
        self.basis[r] = c

    def entering(self, cost_index: int, limit: int, bland: bool) -> Optional[int]:
        # Bland: smallest column index with negative reduced cost.
        # Dantzig: most negative, ties to the smallest index; used while a
        # pivot budget lasts, after which Bland's rule takes over so that
        # termination stays guaranteed.  Both rules are deterministic.
        row = self.mat[cost_index]
        if bland:
            for j in range(limit):
                if row[j] < 0:
                    return j
            return None
        best = None
        best_val = 0
        for j in range(limit):
            v = row[j]
            if v < best_val:
                best, best_val = j, v
        return best

    def leaving(self, c: int) -> Optional[int]:
        # Minimum-ratio row; ties broken by smallest basic variable
        # index, which together with the Bland entering rule prevents
        # cycling.
        mat = self.mat
        best = None
        best_num = best_den = 0
        for i in range(self.m):
            a = mat[i][c]
            if a <= 0:
                continue
            b = mat[i][-1]
            if best is None:
                best, best_num, best_den = i, b, a
                continue
            diff = b * best_den - best_num * a
            if diff < 0 or (diff == 0 and self.basis[i] < self.basis[best]):
                best, best_num, best_den = i, b, a
        return best

    def run(self, cost_index: int, limit: int) -> str:
        budget = 4 * (self.m + limit) + 64
        pivots = 0
        while True:
            c = self.entering(cost_index, limit, bland=pivots >= budget)
            if c is None:
                return OPTIMAL
            r = self.leaving(c)
            if r is None:
                return UNBOUNDED
            self.pivot(r, c)
            pivots += 1

    def dual_run(self, limit: int) -> bool:
        """Dual simplex by Bland's rule until every basic value is >= 0: the
        row with the smallest negative basic index leaves, the column of
        least reduced cost over the row's negated entry enters, ties to the
        smallest column.  False if no column can enter (infeasible)."""
        mat, basis = self.mat, self.basis
        while True:
            r = min((i for i in range(self.m) if mat[i][-1] < 0),
                    key=basis.__getitem__, default=None)
            if r is None:
                return True
            row, cost, best = mat[r], mat[-1], None
            for j in range(limit):
                a = row[j]
                if a < 0 and (best is None or cost[j] * best_den < best_num * -a):
                    best, best_num, best_den = j, cost[j], -a
            if best is None:
                return False
            mat[r] = [-v for v in row]
            self.pivot(r, best)


# ---------------------------------------------------------------------------
# canonicalization: user LP -> integer standard form
# ---------------------------------------------------------------------------


class _Canonical:
    """Integer standard form min c.z, Az = b, z >= 0, b >= 0.

    Column layout: structural (free variables split) | slack/surplus,
    one per inequality row, coefficient +/-1 | artificials, coefficient
    +1, one per row that lacks a +1 slack.  Slack variables absorb the
    row's denominator-clearing scale; their values are never reported.
    """

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        n, m = lp.num_vars, lp.num_rows
        self.sense_sign = -1 if lp.sense == MAX else 1

        self.plus_col: list[int] = []
        self.minus_col: list[Optional[int]] = []
        col = 0
        for d in lp.domains:
            self.plus_col.append(col)
            col += 1
            if d == FREE:
                self.minus_col.append(col)
                col += 1
            else:
                self.minus_col.append(None)
        self.n_struct = col

        slack_col: list[Optional[int]] = []
        for rel in lp.relations:
            if rel == EQ:
                slack_col.append(None)
            else:
                slack_col.append(col)
                col += 1
        self.n_with_slack = col

        int_rows: list[list[int]] = []
        slack_sign: list[int] = []
        self.row_mult: list[Fraction] = []  # internal row = mult * user row
        for i in range(m):
            coeffs = lp.rows[i]
            b = lp.rhs[i]
            neg = -1 if b < 0 else 1
            scale = lcm(*(a.denominator for a in coeffs), b.denominator)
            self.row_mult.append(Fraction(neg * scale))
            row = [0] * self.n_with_slack
            for j, a in enumerate(coeffs):
                if not a:
                    continue
                # a * scale * neg, read off in integers
                v = neg * a.numerator * (scale // a.denominator)
                row[self.plus_col[j]] = v
                mc = self.minus_col[j]
                if mc is not None:
                    row[mc] = -v
            rel = lp.relations[i]
            if rel == EQ:
                slack_sign.append(0)
            else:
                sign = (1 if rel == LE else -1) * neg
                row[slack_col[i]] = sign
                slack_sign.append(sign)
            row.append(neg * b.numerator * (scale // b.denominator))
            int_rows.append(row)

        # Artificials for rows without a +1 slack to start from.
        self.art_cols: list[int] = []
        art_col: list[Optional[int]] = []
        basis: list[int] = []
        for i in range(m):
            if slack_sign[i] > 0:
                art_col.append(None)
                basis.append(slack_col[i])
            else:
                art_col.append(col)
                self.art_cols.append(col)
                basis.append(col)
                col += 1
        self.n_total = col
        for i in range(m):
            row = int_rows[i]
            row[-1:-1] = [0] * (self.n_total - self.n_with_slack)
            if art_col[i] is not None:
                row[art_col[i]] = 1

        # Dual reader per row: a column whose frozen coefficients are
        # tau * e_i with zero cost.
        self.reader: list[tuple[int, int]] = []
        for i in range(m):
            if art_col[i] is not None:
                self.reader.append((art_col[i], 1))
            else:
                self.reader.append((slack_col[i], slack_sign[i]))

        self.rows = int_rows
        self.basis0 = basis
        self.slack_col = slack_col

        self.obj_scale = lcm(*(c.denominator for c in lp.objective), 1)
        cost2 = [0] * (self.n_total + 1)
        for j, c in enumerate(lp.objective):
            v = c.numerator * (self.obj_scale // c.denominator) * self.sense_sign
            cost2[self.plus_col[j]] = v
            mc = self.minus_col[j]
            if mc is not None:
                cost2[mc] = -v
        self.cost2 = cost2

        cost1 = [0] * (self.n_total + 1)
        for c in self.art_cols:
            cost1[c] = 1
        for i in range(m):
            if art_col[i] is not None:
                cost1 = [a - b for a, b in zip(cost1, int_rows[i])]
        self.cost1 = cost1


def _phase_one(tab: _Tableau, arts, enter: int, limit: int) -> bool:
    """Phase 1 on row m, the cost row of the artificials `arts`, entering
    columns below `enter`; False if infeasible.  Artificials left basic are
    driven out onto columns below `limit`, except in redundant rows."""
    m = tab.m
    if tab.run(m, enter) == UNBOUNDED:
        raise InternalError("phase-1 objective cannot be unbounded")
    if tab.mat[m][-1] != 0:
        return False
    for r in range(m):  # the phase-1 value is 0, so each artificial is at 0
        if tab.basis[r] in arts:
            _drive_out(tab, r, range(limit))
    return True


def _drive_out(tab: _Tableau, r: int, cols) -> None:
    """Pivot row r, at level zero, on the first column of `cols` with a
    positive entry in it, else on the first with a negative one after
    negating the row; a row that is zero on `cols` stays as it is."""
    row = tab.mat[r]
    for sign in (1, -1):
        target = next((j for j in cols if sign * row[j] > 0), None)
        if target is not None:
            tab.mat[r] = [sign * v for v in row]
            return tab.pivot(r, target)


def _two_phase(can: _Canonical) -> tuple[str, _Tableau]:
    """Phases 1 and 2 on the canonical program: (status, final tableau)."""
    tab = _Tableau(can.rows, can.cost1, can.cost2, can.basis0)
    if not _phase_one(tab, set(can.art_cols), can.n_total, can.n_with_slack):
        return INFEASIBLE, tab
    return tab.run(tab.m + 1, can.n_with_slack), tab


def _solve_primal(lp: LinearProgram) -> LpResult:
    """Pivot on lp's own tableau."""
    can = _Canonical(lp)
    status, tab = _two_phase(can)
    if status != OPTIMAL:
        return LpResult(status=status)

    m, div = tab.m, tab.div
    zvals: dict[int, Fraction] = {}
    for r in range(m):
        zvals[tab.basis[r]] = Fraction(tab.mat[r][-1], div)
    x = []
    for j in range(lp.num_vars):
        v = zvals.get(can.plus_col[j], Fraction(0))
        mc = can.minus_col[j]
        if mc is not None:
            v -= zvals.get(mc, Fraction(0))
        x.append(v)

    K = can.obj_scale
    internal_value = Fraction(-tab.mat[m + 1][-1], div)
    value = can.sense_sign * internal_value / K

    cost_row = tab.mat[m + 1]
    duals = []
    for i in range(lp.num_rows):
        col, tau = can.reader[i]
        y_int = Fraction(-cost_row[col], tau * div)
        duals.append(can.sense_sign * can.row_mult[i] * y_int / K)

    # a row is tight iff it is an equality or its slack ends at zero
    tight = tuple(col is None or not zvals.get(col) for col in can.slack_col)
    return LpResult(OPTIMAL, value, tuple(x), tuple(duals), tight)


class WarmStart:
    """One program re-solved for new right-hand sides from its last optimal
    basis: reduced costs do not depend on the right-hand side, so the basis
    stays dual feasible and a few dual simplex pivots restore primal
    feasibility.  Rows and right-hand sides must be integers, the
    program's own right-hand side nonnegative and the rows of full rank.
    `move` shifts some right-hand sides and re-solves."""

    def __init__(self, lp: LinearProgram):
        can = _Canonical(lp)
        if any(k != 1 for k in can.row_mult):
            raise InternalError("warm starts need integer rows and right-hand sides >= 0")
        status, tab = _two_phase(can)
        if status != OPTIMAL:
            raise InternalError(f"warm-start program ended {status}")
        if set(tab.basis) & set(can.art_cols):
            raise InternalError("artificial left basic after phase 1")
        del tab.mat[tab.m]  # the phase-1 cost row is not needed again
        self._can, self._tab = can, tab

    def move(self, change: Sequence[tuple[int, int]]) -> tuple[int, int]:
        """Add the integer d to right-hand side k for each (k, d) in `change`
        and re-solve: the optimal value as an integer numerator over a
        positive denominator, not reduced."""
        can, tab = self._can, self._tab
        # each row's right-hand side, cost row included, is its start (slack/
        # artificial) columns, div * B^-1, times rhs: move it by the change
        for k, d in change:
            c = can.basis0[k]
            for row in tab.mat:
                row[-1] += row[c] * d
        if not tab.dual_run(can.n_with_slack):
            raise InternalError("warm re-solve found the program infeasible")
        return -can.sense_sign * tab.mat[-1][-1], tab.div * can.obj_scale


class LazyRows:
    """max c.x, c = (0, ..., 0, 1), over free x subject to equality rows and
    `>=` rows that arrive in batches, solved on the tableau of its dual,
    where each row is a column: min b.w - b.u s.t. sum w_t a_t - sum u_i a_i
    = c, u >= 0, w free.  Columns: a (+, -) pair per equality, the `>=` rows
    in order of arrival, the start (artificial) columns, the right-hand side.

    c never changes, so a new column keeps the basis feasible: `add` prices
    it from the start columns, which hold div * B^-1, and the cost row's
    start entries, -div * x, rescaling that row when a cost's denominator
    needs it; `solve` resumes phase-2 primal simplex and returns the point,
    the dual's solution and the tight rows as integers.  The rows must be
    integer, the first ones of full column rank and bounding c.x.
    """

    _NEED = "lazy rows need c = (0, ..., 0, 1) and integer full-rank rows bounding c.x"

    def __init__(self, objective, equalities, rows):
        eqs, rows, c = list(equalities), list(rows), tuple(objective)
        cols = [a for a, _ in eqs] + [[-v for v in a] for a, _ in rows]
        dual = LinearProgram(MIN, tuple(b for _, b in eqs) + tuple(-b for _, b in rows),
                             tuple(zip(*cols)), (EQ,) * len(c), c,
                             (FREE,) * len(eqs) + (NONNEG,) * len(rows))
        can = _Canonical(dual)
        if c != (0,) * (len(c) - 1) + (1,) or any(k != 1 for k in can.row_mult):
            raise InternalError(self._NEED)
        self._tab, self._scale, self._first, self._start = (
            _Tableau(can.rows, can.cost1, can.cost2, can.basis0),
            can.obj_scale, 2 * len(eqs), can.n_struct)
        self._feasible_basis()

    def _feasible_basis(self) -> None:
        # row m is the phase-1 cost row; once no artificial is basic it goes
        tab, start = self._tab, self._start
        arts = range(start, start + tab.m)
        if not _phase_one(tab, arts, start, start) or any(j in arts for j in tab.basis):
            raise InternalError(self._NEED)
        del tab.mat[tab.m]

    def _insert(self, at: int, a, b, sign: int) -> None:
        """Insert the dual column with coefficients sign * a and cost
        sign * b at `at`."""
        tab = self._tab
        up = b.denominator // gcd(b.denominator, self._scale)
        if up > 1:
            tab.mat[-1] = [v * up for v in tab.mat[-1]]
            self._scale *= up
        col = [(self._start + i, sign * v) for i, v in enumerate(a) if v]
        for row in tab.mat:
            row.insert(at, sum(row[i] * v for i, v in col))
        tab.mat[-1][at] += tab.div * sign * b.numerator * (self._scale // b.denominator)
        tab.basis = [j + (j >= at) for j in tab.basis]
        self._start += 1

    def add(self, rows) -> None:
        """Append `>=` rows (coefficients, right-hand side) as dual columns."""
        for a, b in rows:
            self._insert(self._start, a, b, -1)

    def next_level(self, equalities, keep) -> None:
        """Carry the tableau to the next level's program: the `equalities`
        join after the present ones and the `>=` rows flagged false in
        `keep` (one flag per row, in order) leave, in a cold build's order.

        The last start column is div * B^-1 c, the basic solution itself:
        pivoted in on a positive row, a leaving one's where possible, it
        sits at 1 and every other basic variable at 0, so the leaving
        columns are pivoted out at level zero and deleted.  Phase 1 then
        minimises the artificials, none re-entering.  It and the drive-out
        fail exactly where a cold build's would, the columns being the
        same, so there is no cold fallback: such a level raises
        `InternalError`.
        """
        tab, m = self._tab, self._tab.m
        for a, b in equalities:
            for sign in (1, -1):
                self._insert(self._first, a, b, sign)
                self._first += 1
        drop = {self._first + i for i, k in enumerate(keep) if not k}
        tab.pivot(max((r for r in range(m) if tab.mat[r][-1] > 0),
                      key=lambda r: tab.basis[r] in drop), self._start + m - 1)
        cols = [j for j in range(len(tab.mat[0]) - 1) if j not in drop]
        for r, j in enumerate(tab.basis):
            if j in drop:  # never stuck: the start columns hold div * B^-1
                _drive_out(tab, r, cols)
        where = {j: k for k, j in enumerate(cols)}
        tab.mat = [[row[j] for j in cols] + row[-1:] for row in tab.mat]
        tab.basis = [where[j] for j in tab.basis]
        self._start = start = self._start - len(drop)
        # phase-1 costs: minus the basic artificials' rows; the start
        # columns never enter, so their own cost of 1 is never read
        arts = [row for row, j in zip(tab.mat, tab.basis) if j >= start]
        tab.mat.insert(m, [-sum(col) for col in zip(*arts)])
        self._feasible_basis()

    def solve(self) -> Optional[tuple[list[int], int, list[int], int, list[bool]]]:
        """The optimum over every row added so far, read off the dual's
        tableau as integers: (x, den, y, div, tight), or None if the program
        is infeasible (its dual unbounded).  x lists the point's numerators
        over den > 0.  y is the dual's solution over div > 0: u_i >= 0 for
        each `>=` row in order of arrival, positive on a binding row (its
        dual in `LpResult`'s sense is -u_i / div), then w_t, each
        equality's dual.  tight flags the `>=` rows active at x."""
        tab, first, start = self._tab, self._first, self._start
        if tab.run(tab.m, start) != OPTIMAL:
            return None
        cost, z = tab.mat[-1], [0] * start
        for r, c in enumerate(tab.basis):
            if c < start:
                z[c] = tab.mat[r][-1]
        return ([-v for v in cost[start:-1]], tab.div * self._scale,
                z[first:] + [z[t] - z[t + 1] for t in range(0, first, 2)], tab.div,
                [v == 0 for v in cost[first:start]])


def solve_lp(lp: LinearProgram) -> LpResult:
    """Solve an LP exactly on its own tableau; deterministic for identical
    input."""
    if not isinstance(lp, LinearProgram):
        raise InputError("solve_lp expects a LinearProgram")
    return _solve_primal(lp)
