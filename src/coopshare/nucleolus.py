"""Nucleolus computation along three routes.

* `nucleolus_primal_dual` — combinatorial algorithm for canonical
  single-market games: walk an improving direction until a coalition
  avoiding the strongest player goes tight, fix it, repeat.  At most
  n - 1 rounds, no LP solves.
* `nucleolus_separation` — cutting-plane variant: each lexicographic
  level is solved as a small LP with violated coalitions generated by
  the polynomial `separate` oracle.
* `nucleolus_bruteforce` — the same levels for any characteristic
  function given as an oracle, read once into `game.coalition_table`;
  its cuts are the most violated coalitions found by scanning that
  table.  Exponential; guarded at n <= 12.

Both LP routes run one level loop, `_sequential_lp`, from the singletons
and differ only in their cut.  At each level every binding coalition
(negative multiplier, linearly independent of the already-fixed ones) is
fixed, so at most n - 1 levels are solved per game, each plus the
re-solves after its cuts.

All three agree exactly; the brute-force route is the ground truth the
fast routes are tested against.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from typing import Callable, Optional, Sequence

from .errors import InputError, InternalError
from .game import (Allocation, Coalition, SingleMarketGame, coalition_table, excesses,
                   value_single_market)
from .ratlp import EQ, FREE, GE, MAX, OPTIMAL, LinearProgram, rat, solve_lp

BRUTE_FORCE_LIMIT = 12

_ZERO = Fraction(0)


@dataclass(frozen=True)
class FixedFamily:
    """The family of coalitions pinned by a fixed set F not containing 1.

    A coalition belongs to the family iff it is a subset of F or a
    superset of the complement of F; membership is O(n).
    """

    fixed: Coalition
    n: int

    def __post_init__(self):
        if 1 in self.fixed:
            raise InternalError("player 1 can never enter the fixed set")
        if self.fixed.mask >> self.n:
            raise InputError("fixed set exceeds the player count")

    def contains(self, coalition: Coalition) -> bool:
        if coalition.is_subset_of(self.fixed):
            return True
        complement = self.fixed.complement(self.n)
        return complement.is_subset_of(coalition)

    @property
    def complete(self) -> bool:
        return len(self.fixed) == self.n - 1


@dataclass(frozen=True)
class ImprovingDirection:
    """Direction raising the level: +|unfixed - 1| on player 1, -1 on the
    other unfixed players, 0 on fixed ones; preserves efficiency."""

    delta: tuple[int, ...]

    def __post_init__(self):
        if sum(self.delta) != 0:
            raise InternalError("improving direction must preserve efficiency")


def improving_direction(family: FixedFamily) -> ImprovingDirection:
    n = family.n
    fixed = family.fixed
    delta = [-1] * n
    delta[0] = n - 1 - len(fixed)
    for p in fixed.members():
        delta[p - 1] = 0
    direction = ImprovingDirection(tuple(delta))
    # zero on every fixed player and on N as a whole pins the direction
    # orthogonal to the entire fixed family
    if any(direction.delta[p - 1] != 0 for p in fixed.members()):
        raise InternalError("direction must vanish on the fixed set")
    return direction


@dataclass
class SchemeState:
    """Mutable state of one primal-dual run (canonical space).

    The payoffs and the level are integer numerators over one common
    denominator: x = nums / den and epsilon = eps / den, where den is
    always a multiple of the game's `integer_form.den`.
    """

    nums: list[int]
    eps: int
    den: int
    family: FixedFamily
    level: int

    @classmethod
    def start(cls, g: SingleMarketGame) -> "SchemeState":
        """x = alpha_1 * share (every drop-one coalition tight), epsilon = 0."""
        form = g.integer_form
        top = form.alpha[0]
        return cls([top * s for s in form.share], 0, form.den,
                   FixedFamily(Coalition(0), g.n), 0)

    @property
    def x(self) -> list[Fraction]:
        return [Fraction(v, self.den) for v in self.nums]

    @property
    def epsilon(self) -> Fraction:
        return Fraction(self.eps, self.den)

    def advance(self, lam: Fraction, direction: ImprovingDirection) -> None:
        """Move x by lam * delta and epsilon by lam."""
        den = lcm(self.den, lam.denominator)
        up = den // self.den
        step = lam.numerator * (den // lam.denominator)
        self.nums = [v * up + step * d for v, d in zip(self.nums, direction.delta)]
        self.eps = self.eps * up + step
        self.den = den

    def validate(self, g: SingleMarketGame) -> None:
        # Every player outside the fixed set (other than 1) must keep the
        # drop-one coalition N\{i} tight at the current level:
        # x(N) - x_i = alpha_1 * (1 - share_i) + epsilon, over den.
        form = g.integer_form
        up = self.den // form.den
        top = form.alpha[0] * up
        total = sum(self.nums)
        fixed = self.family.fixed.mask
        for i in range(2, g.n + 1):
            if fixed >> (i - 1) & 1:
                continue
            lhs = total - self.nums[i - 1]
            rhs = top * (form.share_den - form.share[i - 1]) + self.eps
            if lhs != rhs:
                raise InternalError(
                    f"drop-one tightness violated for player {i}: "
                    f"{Fraction(lhs, self.den)} != {Fraction(rhs, self.den)}"
                )


@dataclass(frozen=True)
class TraceStep:
    """One outer round: step length, new level, coalition fixed, set F after."""

    level: int
    step: Fraction
    epsilon: Fraction
    fixed: Coalition
    family: Coalition


def step_size(
    g: SingleMarketGame,
    x: Sequence[Fraction],
    epsilon: Fraction,
    family: FixedFamily,
) -> tuple[Fraction, Coalition]:
    """Largest feasible move along the improving direction, with a coalition
    that blocks it.

    Enumerates the blocking coalition's smallest member i >= 2 and the
    count t of its players outside F.  For each (i, t) the cheapest
    candidate takes i, every later F-member with negative weight, and
    the t (or t-1 when i is outside F) cheapest later non-F players.
    A zero step means some unfixed coalition is already tight; the
    caller then only grows F.

    Runs on integers: x and epsilon become numerators over one common
    denominator, the cheapest candidates for t = 1, 2, ... are running
    prefix sums over the sorted non-F weights, and candidate steps
    (T - epsilon) / (1 + t) are compared by cross-multiplication.  Ties
    go to the first (i, t).  O(n^2 log n) integer operations per call.
    """
    n = g.n
    if family.complete:
        raise InternalError("step_size called with nothing left to fix")
    if len(x) != n:
        raise InputError(f"payoff vector has length {len(x)}, expected {n}")
    form = g.integer_form
    xs, den = form.numerators([*x, epsilon])
    eps = xs.pop()
    share = form.shares_over(den)
    fixed_mask = family.fixed.mask
    budget = n - 1 - len(family.fixed)
    # 0-based positions of the players after player 1, split by F
    fixed = [j for j in range(1, n) if fixed_mask >> j & 1]
    free = [j for j in range(1, n) if not fixed_mask >> j & 1]
    # the best candidate so far is the step best_num / (den * best_t1)
    best_num, best_t1, best_mask = None, 1, 0
    for i in range(1, n):  # 0-based position of the smallest member
        a = form.alpha[i]
        in_f = fixed_mask >> i & 1
        total = xs[i] - a * share[i] - eps
        mask = 1 << i
        for j in fixed[bisect_right(fixed, i):]:
            w = xs[j] - a * share[j]
            if w < 0:
                total += w
                mask |= 1 << j
        outside = sorted(
            [(xs[j] - a * share[j], j) for j in free[bisect_right(free, i):]]
        )
        # t >= 1 counts the candidate's members outside F, i included;
        # each outside player taken (cheapest first) adds one
        t1 = 2 - in_f  # 1 + t before any outside player is taken
        if not in_f and (best_num is None or total * best_t1 < best_num * t1):
            best_num, best_t1, best_mask = total, t1, mask
        for w, j in outside[: budget - 1 + in_f]:
            total += w
            mask |= 1 << j
            t1 += 1
            if best_num is None or total * best_t1 < best_num * t1:
                best_num, best_t1, best_mask = total, t1, mask
    if best_num is None:
        raise InternalError("no candidate coalition found; family inconsistent")
    lam = Fraction(best_num, den * best_t1)
    if lam < 0:
        raise InternalError(f"negative step {lam}: state infeasible")
    return lam, Coalition(best_mask)


def _canonical_allocation(
    g: SingleMarketGame, xs: Sequence[Fraction], method: str
) -> Allocation:
    return Allocation(
        g.to_original(xs), g.alpha[0] * g.scale, method=method, in_core=True
    )


def nucleolus_primal_dual(
    g: SingleMarketGame, trace: Optional[list[TraceStep]] = None
) -> Allocation:
    """Exact nucleolus of a single-market game in at most n - 1 rounds.

    Reported in original player order and demand units.
    """
    n = g.n
    method = "nucleolus (primal-dual)"
    if n == 1:
        return _canonical_allocation(g, (g.alpha[0],), method)
    state = SchemeState.start(g)
    state.validate(g)
    while not state.family.complete:
        state.level += 1
        if state.level > n - 1:
            raise InternalError("primal-dual exceeded its n - 1 round bound")
        lam, blocking = step_size(g, state.x, state.epsilon, state.family)
        if lam > 0:
            state.advance(lam, improving_direction(state.family))
        grown = state.family.fixed.union(blocking)
        if grown.mask == state.family.fixed.mask:
            raise InternalError("fixed set failed to grow")
        state.family = FixedFamily(grown, n)
        state.validate(g)
        if trace is not None:
            trace.append(
                TraceStep(
                    level=state.level,
                    step=lam,
                    epsilon=state.epsilon,
                    fixed=Coalition.of(g.perm[k - 1] for k in blocking.members()),
                    family=Coalition.of(g.perm[k - 1] for k in grown.members()),
                )
            )
    return _canonical_allocation(g, state.x, method)


# ---------------------------------------------------------------------------
# separation route
# ---------------------------------------------------------------------------


def _chi(mask: int, n: int) -> tuple[int, ...]:
    return tuple(mask >> k & 1 for k in range(n))


def separate(
    g: SingleMarketGame,
    x: Sequence[Fraction],
    epsilon: Fraction,
    fixed: Sequence[tuple[Coalition, Fraction]],
) -> Optional[Coalition]:
    """Find a coalition outside span(fixed) with x(S) < v(S) + epsilon,
    or certify none exists.

    Scans the coalition's smallest member i; among later players the
    candidate weights sort ascending, the all-nonpositive prefix is the
    cheapest set, and when that set is span-pinned the nearest feasible
    edits (dropping a maximal prefix tail, adding a maximal suffix) are
    the only candidates that can escape the span.  Everything is exact;
    span tests use integer Gaussian elimination on coalition masks.
    """
    n = g.n
    x = [rat(v) for v in x]
    if len(x) != n:
        raise InputError(f"point has length {len(x)}, expected {n}")
    if sum(x) != g.alpha[0]:
        raise InputError("separation point must distribute v(N) exactly")
    span = _MaskSpan(n)
    for coalition, value in fixed:
        if sum(x[k - 1] for k in coalition.members()) != value:
            raise InputError(
                f"separation point violates the fixed value of {coalition}"
            )
        span.add(coalition.mask, value)
    return _separate(g, x, epsilon, span)


def _separate(
    g: SingleMarketGame, x: Sequence[Fraction], epsilon: Fraction, span: _MaskSpan
) -> Optional[Coalition]:
    """`separate` at a checked point, with the fixed coalitions already in
    `span`; the separation route's cut passes its loop's own span."""
    n = g.n
    for i in range(1, n + 1):
        a = g.alpha[i - 1]
        items = sorted(
            ((x[j - 1] - a * g.share[j - 1], j) for j in range(i + 1, n + 1))
        )
        p = len(items)
        bound = epsilon - (x[i - 1] - a * g.share[i - 1])
        jbar = 0
        total = _ZERO
        while jbar < p and items[jbar][0] <= 0:
            total += items[jbar][0]
            jbar += 1
        if total >= bound:
            continue
        mask = 1 << (i - 1)
        for k in range(jbar):
            mask |= 1 << (items[k][1] - 1)
        if not span.contains(mask):
            return Coalition(mask)

        # cheapest set is pinned; scan how far the pinned-and-violated
        # property extends on both sides of the prefix
        low = jbar + 1
        for l in range(jbar, 0, -1):
            w, j = items[l - 1]
            if total - w < bound and span.contains(mask & ~(1 << (j - 1))):
                low = l
            else:
                break
        if jbar == 0:
            low = 0
        if jbar == p:
            high = p + 1
        else:
            high = jbar
            for l in range(jbar + 1, p + 1):
                w, j = items[l - 1]
                if total + w < bound and span.contains(mask | 1 << (j - 1)):
                    high = l
                else:
                    break

        if low > 1:
            w, j = items[low - 2]
            cand = mask & ~(1 << (j - 1))
            if total - w < bound and not span.contains(cand):
                return Coalition(cand)
        if high < p:
            w, j = items[high][0], items[high][1]
            cand = mask | 1 << (j - 1)
            if total + w < bound and not span.contains(cand):
                return Coalition(cand)
        # otherwise no separating coalition starts at i
    return None


def _level_program(n: int, masks: Sequence[int], values, span) -> LinearProgram:
    """max epsilon s.t. x(S) - epsilon >= v(S) for S in masks, x(T) = r_T for
    the coalitions fixed in `span`; variables x_1..x_n, epsilon, all free.

    `values[mask]` is v(S).  Both LP routes solve their levels through this
    one program.
    """
    rows = tuple(_chi(m, n) + (-1,) for m in masks) + tuple(
        _chi(m, n) + (0,) for m in span.masks
    )
    rels = (GE,) * len(masks) + (EQ,) * len(span.masks)
    rhs = tuple(values[m] for m in masks) + tuple(span.rhs)
    objective = (0,) * n + (1,)
    return LinearProgram(MAX, objective, rows, rels, rhs, (FREE,) * (n + 1))


def _sequential_lp(
    n: int,
    value: Callable[[int], Fraction],
    cut: Callable[..., Sequence[int]],
) -> tuple[tuple[Fraction, ...], Fraction]:
    """The sequential-LP loop both LP routes run; returns the nucleolus and
    the first level's value, the least-core value epsilon_1.

    `value(mask)` is v(S).  The level programs start from the singletons;
    `cut(x, epsilon, span)` returns coalitions outside the span violated
    at the level optimum, x(S) - v(S) < epsilon, and the level is
    re-solved with them added until it returns none.  Then no coalition
    outside the span is violated, so the restricted optimum is feasible,
    hence optimal, for the level program over every such coalition, and
    its dual padded with zeros is an optimal dual of that program: the
    binding rows fixed below are ones the full program could fix.

    Every row with a negative multiplier is tight on the whole optimal
    face (complementary slackness), so each one outside the span of the
    fixed rows is fixed at v(S) + epsilon_k.  The multipliers on the
    epsilon column sum to -1, so some row is fixed at every level and the
    rank grows: at most n - 1 levels.  The fixed system then pins the
    nucleolus, read off the span's echelon rows.  Every proper coalition
    lies outside span{N}, so epsilon_1 is the least-core value.
    """
    full = (1 << n) - 1
    pool = [1 << k for k in range(n)]
    values = {m: value(m) for m in (full, *pool)}
    span = _MaskSpan(n)
    span.add(full, values[full])
    cut_guard = 2 << n
    levels = []

    while span.rank < n:  # the rank grows every round, or the round raises
        pool = [m for m in pool if not span.contains(m)]
        while True:
            if len(pool) > cut_guard:
                raise InternalError("cutting-plane pool grew past its guard")
            res = solve_lp(_level_program(n, pool, values, span))
            if res.status != OPTIMAL:
                raise InternalError(f"level program ended {res.status}")
            level_value = res.x[n]
            violated = cut(res.x[:n], level_value, span)
            if not violated:
                break
            pool.extend(violated)
            values.update((m, value(m)) for m in violated)
        levels.append(level_value)

        rank = span.rank
        for idx, mask in enumerate(pool):
            # a negative multiplier on a >= row of a max program marks a
            # binding constraint (its covering-form dual is positive)
            if res.duals[idx] < 0:
                if not res.tight[idx]:
                    raise InternalError("binding coalition is not tight")
                span.add(mask, values[mask] + level_value)
        if span.rank == rank:
            raise InternalError("no binding independent coalition to fix")

    return span.solve(), levels[0]


def nucleolus_separation(g: SingleMarketGame) -> Allocation:
    """Nucleolus via lexicographic levels solved by cutting planes.

    The level programs start from the singletons and grow by the
    coalitions `separate` finds.  Produces exactly the same allocation as
    the primal-dual route.
    """
    n = g.n
    method = "nucleolus (separation)"
    if n == 1:
        return _canonical_allocation(g, (g.alpha[0],), method)

    def cut(x, epsilon, span):
        violated = _separate(g, x, epsilon, span)
        return () if violated is None else (violated.mask,)

    xs, _ = _sequential_lp(n, lambda m: value_single_market(g, Coalition(m)), cut)
    return _canonical_allocation(g, xs, method)


class _MaskSpan:
    """Rational span of coalition characteristic vectors, each added
    coalition pinned at a value: the fixed system x(S) = r_S.

    Pure integer reduced-echelon arithmetic on the masks; rows are
    gcd-normalized and zeroed at each other's pivots, so membership tests
    never divide.  Each row carries one more, rational, entry: the same
    combination of the values.  `masks` and `rhs` list the coalitions that
    raised the rank, with their values.
    """

    def __init__(self, n: int):
        self.n = n
        self.masks: list[int] = []
        self.rhs: list[Fraction] = []
        self._rows: list[list] = []
        self._pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _residual(self, v: list) -> list:
        for row, p in zip(self._rows, self._pivots):
            if v[p]:
                f, g = row[p], v[p]
                v = [a * f - g * b for a, b in zip(v, row)]
        return v

    def contains(self, mask: int) -> bool:
        return not any(self._residual(_chi(mask, self.n)))

    @staticmethod
    def _normalized(v: list) -> list:
        # divide the integer part by its gcd and the value entry alike
        shrink = gcd(*v[:-1])
        if shrink > 1:
            v = [a // shrink for a in v[:-1]] + [Fraction(v[-1], shrink)]
        return v

    def add(self, mask: int, value: Fraction) -> bool:
        """Fix x(S) = value unless S is already in the span; True if the
        rank grew."""
        v = self._residual([*_chi(mask, self.n), value])
        p = next((k for k in range(self.n) if v[k]), None)
        if p is None:
            return False
        if v[p] < 0:
            v = [-a for a in v]
        v = self._normalized(v)
        for i, row in enumerate(self._rows):
            if row[p]:
                f, g = v[p], row[p]
                self._rows[i] = self._normalized([a * f - g * b for a, b in zip(row, v)])
        self._rows.append(v)
        self._pivots.append(p)
        self.masks.append(mask)
        self.rhs.append(value)
        return True

    def solve(self) -> tuple[Fraction, ...]:
        """The one point of the fixed system, once the rank is n: the
        reduced-echelon rows are then diagonal, so x_p = r / row[p]."""
        if self.rank < self.n:
            raise InternalError("the fixed coalitions do not pin a single point")
        return tuple(Fraction(row[-1], row[p])
                     for p, row in sorted(zip(self._pivots, self._rows)))


# ---------------------------------------------------------------------------
# brute-force oracle route
# ---------------------------------------------------------------------------


def nucleolus_bruteforce(
    value: Callable[[Coalition], Fraction], n: int
) -> Allocation:
    """Sequential-LP nucleolus for an arbitrary characteristic function.

    Runs the same level loop as the separation route: maximize the worst
    excess, fix the binding coalitions (negative multiplier, outside the
    span of the fixed ones), repeat until one point remains.  Its cut
    scans every coalition's excess in the table and returns up to 4n of
    the most violated ones outside the span, least excess first, ties to
    the smaller mask.  Exponential: n <= 12.  The loop runs on the
    integer coalition table, i.e. the game scaled by its denominator, and
    the nucleolus scales back with it.
    """
    table, den = coalition_table(value, n, BRUTE_FORCE_LIMIT, "brute-force nucleolus")
    method = "nucleolus (brute force)"
    total = Fraction(table[-1], den)
    if n == 1:
        return Allocation((total,), total, method=method, in_core=True)

    def cut(x, epsilon, span):
        excess, big = excesses(table, 1, x)
        bound = -(-epsilon.numerator * big // epsilon.denominator)  # ceil(epsilon * big)
        violated = sorted((e, m) for m, e in enumerate(excess) if e < bound)
        return list(islice((m for _, m in violated if not span.contains(m)), 4 * n))

    # the nucleolus's least excess is the least-core value: in the core
    # iff that is nonnegative, at any positive scale
    xs, least_core = _sequential_lp(n, table.__getitem__, cut)
    return Allocation([v / den for v in xs], total, method=method, in_core=least_core >= 0)
