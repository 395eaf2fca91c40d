"""Nucleolus computation along three routes.

* `nucleolus_primal_dual` — combinatorial algorithm for canonical
  single-market games: walk an improving direction until a coalition
  avoiding the strongest player goes tight, fix it, repeat.  At most
  n - 1 rounds, no LP solves; the round state is integers over one
  common denominator and the fixed set is a bitmask.  The direction keeps
  each smallest member's order of candidates, so every order is sorted
  once per game and read in place; each one's sum over the fixed players
  is carried from round to round, and the shares over the denominator
  are built once and rescaled only when it grows.  A round costs O(n^2)
  integer operations.  `sum_of_nucleoli` takes the result as integers.
* `nucleolus_separation` — cutting-plane variant: each lexicographic
  level is solved on one warm dual tableau, where the one violated
  coalition that the polynomial `separate` oracle finds enters as a
  column, one per re-solve.
* `nucleolus_bruteforce` — the same levels (the prenucleolus) for any
  characteristic function given as an oracle or an instance, read once
  into `game.coalition_table`; its cut scans that table for the one most
  violated coalition outside the fixed span.  Exponential; guarded at
  n <= 12.

Both LP routes run one level loop, `_sequential_lp`, from the singletons
and differ only in their cut.  At each level every binding coalition
(negative multiplier, linearly independent of the already-fixed ones) is
fixed, so at most n - 1 levels are solved per game, all on one warm
`ratlp.LazyRows` tableau: built once, it re-solves from its last basis
after each cut's one column and is carried into each next level.

All three agree exactly; the brute-force route is the ground truth the
fast routes are tested against.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import compress, islice
from math import gcd, lcm
from typing import Callable, Optional, Sequence, Union

from .errors import InputError, InternalError
from .game import (Allocation, Coalition, NormalizedInstance, SingleMarketGame,
                   coalition_table, excesses, value_single_market)
from .ratlp import LazyRows, rat

BRUTE_FORCE_LIMIT = 12


def improving_direction(fixed: Coalition, n: int) -> tuple[int, ...]:
    """Direction raising the level: +|unfixed - 1| on player 1, -1 on the
    other unfixed players, 0 on fixed ones; preserves efficiency."""
    return tuple(_direction(fixed.mask, n))


def _direction(fixed_mask: int, n: int) -> list[int]:
    """`improving_direction` on the fixed set as a mask, as the loop holds it."""
    members = list(_positions(fixed_mask))
    delta = [-1] * n
    for k in members:
        delta[k] = 0
    if not fixed_mask & 1:
        delta[0] = n - 1 - len(members)
    if sum(delta) != 0:
        raise InternalError("improving direction must preserve efficiency")
    # zero on every fixed player and on N as a whole pins the direction
    # orthogonal to the entire fixed family
    if any(delta[k] for k in members):
        raise InternalError("direction must vanish on the fixed set")
    return delta


def _positions(mask: int):
    """The 0-based positions of the mask's set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_drop_one(
    g: SingleMarketGame, nums: Sequence[int], eps: int, den: int, fixed_mask: int
) -> None:
    # Every player outside the fixed set (other than 1) must keep the
    # drop-one coalition N\{i} tight at the current level:
    # x(N) - x_i = alpha_1 * (1 - share_i) + epsilon, over den, i.e.
    # x_i - alpha_1 * share_i = x(N) - alpha_1 - epsilon.
    form = g.integer_form
    top = form.alpha[0] * (den // form.den)
    total = sum(nums)
    rest = total - top * form.share_den - eps
    for i in range(1, g.n):
        if not fixed_mask >> i & 1 and nums[i] - top * form.share[i] != rest:
            lhs = total - nums[i]
            rhs = top * (form.share_den - form.share[i]) + eps
            raise InternalError(
                f"drop-one tightness violated for player {i + 1}: "
                f"{Fraction(lhs, den)} != {Fraction(rhs, den)}"
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
    fixed: Coalition,
) -> tuple[Fraction, Coalition]:
    """Largest feasible move along the improving direction from (x, epsilon)
    with the players of `fixed` pinned, and a coalition that blocks it.

    Enumerates the blocking coalition's smallest member i >= 2 and the
    count t of its players outside F.  For each (i, t) the cheapest
    candidate takes i, every later F-member with negative weight, and
    the t (or t-1 when i is outside F) cheapest later non-F players.
    A zero step means some unfixed coalition is already tight; the
    caller then only grows F.  O(n^2 log n) integer operations per call.
    """
    if 1 in fixed:
        raise InternalError("player 1 can never enter the fixed set")
    if fixed.mask >> g.n:
        raise InputError("fixed set exceeds the player count")
    if len(fixed) == g.n - 1:
        raise InternalError("step_size called with nothing left to fix")
    if len(x) != g.n:
        raise InputError(f"payoff vector has length {len(x)}, expected {g.n}")
    form = g.integer_form
    nums, den = form.numerators([rat(v) for v in (*x, epsilon)])
    eps = nums.pop()
    share = form.shares_over(den)
    lam, mask = _step(g, nums, eps, den, share, fixed.mask, _orders(g, nums, share, fixed.mask),
                      _fixed_sums(g, nums, share, fixed.mask, [0] * g.n))
    return lam, Coalition(mask)


def _orders(g: SingleMarketGame, nums: Sequence[int], share: Sequence[int],
            fixed_mask: int) -> list[list[int]]:
    """For each 0-based position i >= 1, the later players outside F sorted
    by (weight, index), weight_j = nums[j] - alpha_i * share_j, with `share`
    the shares over the den of `nums` (`IntegerForm.shares_over`).

    The improving direction moves every unfixed player j >= 2 by the same
    -lambda, and a larger den scales every weight by the same positive
    factor, so no order ever changes, ties included: the primal-dual loop
    sorts once per game and drops the players each round fixes."""
    alpha = g.integer_form.alpha
    free = [j for j in range(1, g.n) if not fixed_mask >> j & 1]
    orders = [[]]  # position 0, player 1, is never a smallest member
    for i in range(1, g.n):
        a = alpha[i]
        later = free[bisect_right(free, i):]
        # the sort is stable and `later` ascends, so equal weights keep index order
        orders.append(sorted(later, key=lambda j: nums[j] - a * share[j]))
    return orders


def _fixed_sums(g: SingleMarketGame, nums: Sequence[int], share: Sequence[int],
                players: int, sums: list[int]) -> list[int]:
    """Add to sums[i], for each 0-based position i >= 1, the negative weights
    nums[j] - alpha_i * share_j of the players j > i in the mask `players`
    (`share` over the den of `nums`); returns `sums`.

    A fixed player's payoff never moves and a larger den scales every
    weight by the same positive factor, so the sums over F carry across
    rounds: scaled with den, and added to for each player newly fixed.
    alpha is nonincreasing, so j's weight grows with i, and its negative
    weights sit at the first positions: the scan over i stops at the
    first nonnegative one."""
    alpha = g.integer_form.alpha
    for j in _positions(players):
        for i in range(1, j):
            w = nums[j] - alpha[i] * share[j]
            if w >= 0:
                break
            sums[i] += w
    return sums


def _step(g: SingleMarketGame, nums: Sequence[int], eps: int, den: int,
          share: Sequence[int], fixed_mask: int, orders: Sequence[Sequence[int]],
          sums: Sequence[int]) -> tuple[Fraction, int]:
    """`step_size` on x = nums / den and epsilon = eps / den (den a multiple
    of `integer_form.den`, `share` the shares over den), given that point's
    `_orders` and `_fixed_sums` over F, and an F that leaves a player to
    fix; the blocking coalition comes back as a mask.

    The cheapest candidates for t = 1, 2, ... are running prefix sums over
    i's order, and candidate steps (T - epsilon) / (1 + t) are compared by
    cross-multiplication; ties go to the first (i, t).  Each step is a
    weighted mean of the last one and the weight added, and the weights
    ascend, so once a weight is not below the step no later step of i is
    smaller, and the scan of i stops.

    Each order is read whole, with no cap at the budget - 1 + [i in F]
    players a candidate may take outside F, budget = n - 1 - |F| (every
    free player but player 1): orders[i] holds only free players after
    i, and those number at most budget - 1 when i is free, since i is
    one of the budget, and at most budget when i is in F."""
    alpha = g.integer_form.alpha
    # best so far: the step best_num / (den * best_t1), i's order taken to
    # best_take; 1 / 0 stands for no candidate yet, above every step
    best_num, best_t1, best_i, best_take = 1, 0, 0, 0
    for i in range(1, g.n):  # 0-based position of the smallest member
        order, in_f = orders[i], fixed_mask >> i & 1
        if in_f and not order:  # a candidate needs a member outside F
            continue
        a = alpha[i]
        total = nums[i] - a * share[i] - eps + sums[i]
        # t >= 1 counts the candidate's members outside F, i included;
        # each outside player taken (cheapest first) adds one
        t1 = 2 - in_f  # 1 + t before any outside player is taken
        if not in_f and total * best_t1 < best_num * t1:
            best_num, best_t1, best_i, best_take = total, t1, i, 0
        for take, j in enumerate(order, 1):
            w = nums[j] - a * share[j]
            if w * t1 >= total and (take > 1 or not in_f):
                break
            total += w
            t1 += 1
            if total * best_t1 < best_num * t1:
                best_num, best_t1, best_i, best_take = total, t1, i, take
    if not best_t1:
        raise InternalError("no candidate coalition found; family inconsistent")
    lam = Fraction(best_num, den * best_t1)
    if best_num < 0:
        raise InternalError(f"negative step {lam}: state infeasible")
    # i, the first best_take players of its order, and every later fixed
    # player of negative weight
    a = alpha[best_i]
    mask = 1 << best_i
    for j in islice(orders[best_i], best_take):
        mask |= 1 << j
    for j in _positions(fixed_mask >> best_i + 1 << best_i + 1):
        if nums[j] < a * share[j]:
            mask |= 1 << j
    return lam, mask


def _canonical_allocation(
    g: SingleMarketGame, xs: Sequence[Fraction], method: str
) -> Allocation:
    return Allocation(
        g.to_original(xs), g.alpha[0] * g.scale, method=method, in_core=True
    )


def nucleolus_primal_dual(
    g: SingleMarketGame, trace: Optional[list[TraceStep]] = None
) -> Allocation:
    """Exact nucleolus of a single-market game in at most n - 1 rounds,
    reported in original player order and demand units."""
    nums, den = _primal_dual(g, trace)
    return _canonical_allocation(g, [Fraction(v, den) for v in nums],
                                 "nucleolus (primal-dual)")


def _primal_dual(g: SingleMarketGame, trace: Optional[list[TraceStep]]) -> tuple[list[int], int]:
    """The primal-dual rounds; returns the nucleolus in canonical order as
    numerators over one den > 0.

    The round state is x = nums / den, epsilon = eps / den and the fixed
    set F as a mask, from x = alpha_1 * share (every drop-one coalition
    tight), epsilon = 0.  The shares over den, the orders and the sums
    over F are built once and kept: the shares and sums are scaled only
    when den grows, and a round drops the players it fixes from the
    orders and adds their weights to the sums.
    """
    n = g.n
    form = g.integer_form
    nums = [form.alpha[0] * s for s in form.share]
    eps, den, fixed, level = 0, form.den, 0, 0
    share = form.shares_over(den)
    _check_drop_one(g, nums, eps, den, fixed)
    orders, sums = _orders(g, nums, share, fixed), [0] * n
    while fixed.bit_count() < n - 1:
        level += 1
        if level > n - 1:
            raise InternalError("primal-dual exceeded its n - 1 round bound")
        lam, blocking = _step(g, nums, eps, den, share, fixed, orders, sums)
        if lam:  # never negative
            # move x by lam * delta and epsilon by lam
            delta = _direction(fixed, n)
            big = lcm(den, lam.denominator)
            up = big // den
            step = lam.numerator * (big // lam.denominator)
            nums = [v * up + step * d for v, d in zip(nums, delta)]
            eps, den = eps * up + step, big
            if up > 1:
                share = [s * up for s in share]
                sums = [v * up for v in sums]
        grown = fixed | blocking
        if grown == fixed:
            raise InternalError("fixed set failed to grow")
        if grown & 1:
            raise InternalError("player 1 can never enter the fixed set")
        _fixed_sums(g, nums, share, grown ^ fixed, sums)
        for j in _positions(grown ^ fixed):  # a newly fixed player leaves the orders
            for i in range(1, j):
                orders[i].remove(j)
        fixed = grown
        _check_drop_one(g, nums, eps, den, fixed)
        if trace is not None:
            trace.append(
                TraceStep(
                    level=level,
                    step=lam,
                    epsilon=Fraction(eps, den),
                    fixed=Coalition.of(g.perm[k] for k in range(n) if blocking >> k & 1),
                    family=Coalition.of(g.perm[k] for k in range(n) if fixed >> k & 1),
                )
            )
    return nums, den


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
    candidate weights sort ascending and the all-nonpositive prefix is the
    cheapest set S.  Any other coalition starting at i drops members of S,
    each raising the sum by -w >= 0, and adds later players, each raising
    it by w > 0, so it is violated only if each of its one-member edits of
    S is violated alone; and if S and those edits lie in the span, so does
    it.  So when S is span-pinned, the violated one-member edits are the
    only candidates that can escape the span.  Everything is exact and in
    integers: the weights are numerators over one scale, and a span test
    sums the fixed rows' echelon entries over the coalition's bits.
    """
    n = g.n
    x, epsilon = [rat(v) for v in x], rat(epsilon)
    if len(x) != n:
        raise InputError(f"point has length {len(x)}, expected {n}")
    if sum(x) != g.alpha[0]:
        raise InputError("separation point must distribute v(N) exactly")
    span = _MaskSpan(n)
    for coalition, value in fixed:
        value = rat(value)
        if coalition.mask >> n:
            raise InputError(f"fixed coalition {coalition} exceeds the player count")
        if sum(x[k - 1] for k in coalition.members()) != value:
            raise InputError(
                f"separation point violates the fixed value of {coalition}"
            )
        span.add(coalition.mask, value)
    found = _separate(g, *g.integer_form.numerators([*x, epsilon]), span)
    return None if found is None else Coalition(found)


def _separate(
    g: SingleMarketGame, nums: Sequence[int], den: int, span: _MaskSpan
) -> Optional[int]:
    """`separate` at a checked point x = nums[:n] / den, epsilon = nums[n] /
    den (den > 0), with the fixed coalitions already in `span`; the
    separation route's cut passes its loop's own point and span, and the
    coalition comes back as a mask.  It scans each weight x_j - alpha_i *
    share_j as its integer numerator over one scale, which keeps every
    order and comparison, ties to index included."""
    n = g.n
    form = g.integer_form
    big = lcm(den, form.den)
    nums = [v * (big // den) for v in nums]
    eps = nums[n]
    share = form.shares_over(big)
    for i in range(n):  # 0-based position of the smallest member
        a = form.alpha[i]
        items = sorted((nums[j] - a * share[j], j) for j in range(i + 1, n))
        p = len(items)
        bound = eps - (nums[i] - a * share[i])
        jbar = 0
        total = 0
        while jbar < p and items[jbar][0] <= 0:
            total += items[jbar][0]
            jbar += 1
        if total >= bound:
            continue
        mask = 1 << i
        for k in range(jbar):
            mask |= 1 << items[k][1]
        if not span.contains(mask):
            return mask
        # the cheapest set is pinned: drops go from the weight nearest zero
        # and adds from the least weight, so each edit raises the sum at
        # least as much as the one before, and a scan stops at the first
        # edit that is no longer violated
        for w, j in reversed(items[:jbar]):
            if total - w >= bound:
                break
            if not span.contains(mask ^ 1 << j):
                return mask ^ 1 << j
        for w, j in items[jbar:]:
            if total + w >= bound:
                break
            if not span.contains(mask | 1 << j):
                return mask | 1 << j
    return None


def _sequential_lp(
    n: int,
    value: Callable[[int], Fraction],
    cut: Callable[[list[int], int, _MaskSpan], Optional[int]],
) -> tuple[tuple[Fraction, ...], Fraction]:
    """The sequential-LP loop both LP routes run; returns the prenucleolus
    (no level imposes x_i >= v({i})) and the first level's value, the
    least-core value epsilon_1.  Between solves it reads only integers:
    the optimum (x, epsilon) as numerators `nums` over one `den` > 0, the
    signs of the pool rows' multipliers and the tight flags.  A level's one
    `Fraction` is its epsilon_k, for the values it fixes.

    `value(mask)` is v(S).  A level, max epsilon s.t. x(S) - epsilon >=
    v(S) for the pool and x(T) = r_T for the fixed coalitions, is solved
    on one `LazyRows` tableau, built for the first level and carried into
    each next one, where the newly fixed coalitions join as equalities and
    the pool rows now in the span leave.
    `cut(nums, den, span)` returns the mask of a coalition outside the
    span violated at the level optimum, x(S) - v(S) < epsilon, or None; it
    enters the tableau as one column, and the level is re-solved from its
    last basis until the cut returns None.  Then no coalition outside the
    span is violated, so the restricted optimum is feasible, hence
    optimal, for the level program over every such coalition, and its
    dual padded with zeros is an optimal dual of that program: the
    binding rows fixed below are ones the full program could fix.

    Every row with a positive multiplier is tight on the whole optimal
    face (complementary slackness), so each one outside the span of the
    fixed rows is fixed at v(S) + epsilon_k.  The multipliers on the
    epsilon column sum to 1, so some row is fixed at every level and the
    rank grows: at most n - 1 levels.  The last level's optimum is the
    prenucleolus: it meets every earlier fixed equality, it is tight on
    every row fixed at that level (checked below), and those rows raise
    the rank to n, so it is the one solution of the fixed system.  Every
    proper coalition lies outside span{N}, so epsilon_1 is the least-core
    value.
    """
    full = (1 << n) - 1
    pool = [1 << k for k in range(n)]
    values = {m: value(m) for m in (full, *pool)}
    span = _MaskSpan(n)
    span.add(full, values[full])
    cut_guard = 2 << n
    levels = []

    def rows(masks):
        return [(_chi(m, n) + (-1,), values[m]) for m in masks]

    level = LazyRows([(_chi(full, n) + (0,), values[full])], rows(pool))
    while True:  # the rank grows every round, or the round raises
        while True:
            if len(pool) > cut_guard:
                raise InternalError("cutting-plane pool grew past its guard")
            res = level.solve()
            if res is None:
                raise InternalError("level program ended infeasible")
            nums, den, multipliers, _, tight = res
            mask = cut(nums, den, span)
            if mask is None:
                break
            pool.append(mask)
            values[mask] = value(mask)
            level.add(rows([mask]))
        levels.append(Fraction(nums[n], den))

        rank = span.rank
        for idx, mask in enumerate(pool):
            # a positive multiplier u (a negative dual) on a >= row of a
            # max program marks a binding constraint
            if multipliers[idx] > 0:
                if not tight[idx]:
                    raise InternalError("binding coalition is not tight")
                span.add(mask, values[mask] + levels[-1])
        if span.rank == rank:
            raise InternalError("no binding independent coalition to fix")
        if span.rank == n:
            return tuple(Fraction(v, den) for v in nums[:n]), levels[0]
        keep = [not span.contains(m) for m in pool]
        pool = list(compress(pool, keep))
        level.next_level([(_chi(m, n) + (0,), r)
                          for m, r in zip(span.masks[rank:], span.rhs[rank:])], keep)


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

    xs, _ = _sequential_lp(n, lambda m: value_single_market(g, Coalition(m)),
                           partial(_separate, g))
    return _canonical_allocation(g, xs, method)


class _MaskSpan:
    """Rational span of the fixed coalitions' characteristic vectors; it
    only answers membership.

    The rows are the span's reduced echelon basis scaled to one common
    pivot value L, integers of gcd 1, kept by the coordinates t that are
    no pivot: one column per t maps the bit of each pivot p to row p's
    nonzero entry c_tp at t.  S is in the span iff chi(S) is the sum of
    the rows pivoted in S over L, which holds at the pivots by
    construction; so iff every R_t(S) = L * [t in S] - sum of c_tp over
    the pivots p in S is zero.  R is linear in chi(S), so `contains` sums
    one packed integer per member, w_k = sum over t of R_t({k}) * B^t
    with B = 2 * max over t of (L + sum over p of |c_tp|) + 1: every
    |R_t(S)| < B / 2, and balanced base-B digits are unique, so the sum
    is zero iff every R_t(S) is.  `add` keeps the echelon update and
    repacks.  `masks` and `rhs` list the coalitions that raised the rank
    with their values, the fixed system x(S) = r_S that the next level's
    equality rows are built from.
    """

    def __init__(self, n: int):
        self.n = n
        self.masks: list[int] = []
        self.rhs: list[Fraction] = []
        self._lead = 1
        self._cols: list[tuple[int, dict[int, int]]] = [(1 << k, {}) for k in range(n)]
        self._pack()

    @property
    def rank(self) -> int:
        return len(self.masks)

    def _residual(self, mask: int):
        """L * chi(S) minus the rows pivoted in S, column by column."""
        lead = self._lead
        return ((lead if mask & bit else 0) - sum(c for p, c in col.items() if mask & p)
                for bit, col in self._cols)

    def _pack(self) -> None:
        lead, cols = self._lead, self._cols
        base = 2 * max((lead + sum(map(abs, col.values())) for _, col in cols), default=0) + 1
        self._weights = w = [0] * self.n
        for t, (bit, col) in enumerate(cols):
            digit = base ** t
            w[bit.bit_length() - 1] += lead * digit
            for p, c in col.items():
                w[p.bit_length() - 1] -= c * digit

    def contains(self, mask: int) -> bool:
        weights, total = self._weights, 0
        while mask:
            low = mask & -mask
            total += weights[low.bit_length() - 1]
            mask ^= low
        return not total

    def add(self, mask: int, value: Fraction) -> bool:
        """Fix x(S) = value unless S is already in the span; True if the
        rank grew."""
        res = list(self._residual(mask))
        at = next((t for t, r in enumerate(res) if r), None)
        if at is None:
            return False
        # the new row is L * residual, pivoted at its first nonzero entry,
        # d at column q; d * row - row[q] * residual clears q in each old row
        d, lead = res.pop(at), self._lead
        q, pivot_col = self._cols.pop(at)
        cols = [(bit, {p: d * col.get(p, 0) - pivot_col.get(p, 0) * r
                       for p in col.keys() | pivot_col.keys()} | {q: lead * r})
                for (bit, col), r in zip(self._cols, res)]
        shrink = gcd(d * lead, *(c for _, col in cols for c in col.values()))
        shrink = shrink if d > 0 else -shrink
        self._lead = d * lead // shrink
        self._cols = [(bit, {p: c // shrink for p, c in col.items() if c}) for bit, col in cols]
        self._pack()
        self.masks.append(mask)
        self.rhs.append(value)
        return True


# ---------------------------------------------------------------------------
# brute-force oracle route
# ---------------------------------------------------------------------------


def nucleolus_bruteforce(
    value: Union[NormalizedInstance, Callable[[Coalition], Fraction]], n: int
) -> Allocation:
    """Sequential-LP prenucleolus for an arbitrary characteristic function,
    given as a value oracle or as an n-player instance (any source of
    `coalition_table`): no level imposes x_i >= v({i}).  It is the
    nucleolus whenever the core is non-empty, as it is for every instance
    game.

    Runs the same level loop as the separation route: maximize the worst
    excess, fix the binding coalitions (negative multiplier, outside the
    span of the fixed ones), repeat until one point remains.  Its cut
    scans every coalition's excess in the table and returns the one most
    violated coalition outside the span, least excess, ties to the
    smaller mask: a batch of the 4n most violated adds columns that
    rarely enter the basis and widen every later pivot.  Exponential:
    n <= 12.  The loop runs on the integer coalition table, i.e. the game
    scaled by its denominator, and the nucleolus scales back with it.
    """
    table, den = coalition_table(value, n, BRUTE_FORCE_LIMIT, "brute-force nucleolus")
    method = "nucleolus (brute force)"
    total = Fraction(table[-1], den)
    if n == 1:
        return Allocation((total,), total, method=method, in_core=True)

    def cut(nums, up, span):  # the point is nums / up; the table is integer
        eps = nums[n]
        violated = sorted((e, m) for m, e in enumerate(excesses(table, up, nums)) if e < eps)
        return next((m for _, m in violated if not span.contains(m)), None)

    # the nucleolus's least excess is the least-core value: in the core
    # iff that is nonnegative, at any positive scale
    xs, least_core = _sequential_lp(n, table.__getitem__, cut)
    return Allocation([v / den for v in xs], total, method=method, in_core=least_core >= 0)
