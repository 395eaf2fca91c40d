"""Shared helpers: seeded random generators, an instance's characteristic
function by cold solves, a spy on the warm coalition walk, exact LP
certificate checks, the nucleolus level program, a reference LP solve on
the dual tableau, the `LpResult` of an integer level solve, a reference
row space and a reference linear solver, the Shapley ordering weights,
Fraction references for the enumerating routes and the separation cut,
and integer references for the subset sums and the brute-force cut."""

import random
from fractions import Fraction
from math import factorial
from pathlib import Path
from typing import NamedTuple

from coopshare import (
    Allocation,
    Coalition,
    CoreCheck,
    InputError,
    Instance,
    InternalError,
    LpResult,
    SingleMarketGame,
    normalize,
    single_market,
    solve_lp,
    value_general,
)
from coopshare.ratlp import EQ, FREE, GE, LE, MAX, MIN, NONNEG, LinearProgram, WarmStart

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SINGLE_MARKET_FIXTURE = FIXTURES / "single_market_demo.json"
MULTI_MARKET_FIXTURE = FIXTURES / "multi_market_demo.json"
CAPACITATED_FIXTURE = FIXTURES / "capacitated_demo.json"

HUGE = "7" * 5000  # past the interpreter's 4300-digit int conversion limit
# JSON texts that replace one value of an input: negative, zero, float,
# zero denominator, an integer past the 4300-digit conversion limit, null
# and a list
ATOMS = ("-3", "0", "1.5", '"2/0"', HUGE, "null", "[1, 2]")


def random_single_market(rng: random.Random, n: int) -> SingleMarketGame:
    alpha = sorted(
        (Fraction(rng.randint(0, 8), rng.randint(1, 3)) for _ in range(n)),
        reverse=True,
    )
    weights = [rng.randint(0, 4) for _ in range(n)]
    if sum(weights) == 0:
        weights[rng.randrange(n)] = 1
    total = sum(weights)
    return single_market(alpha, [Fraction(w, total) for w in weights])


def random_uncapacitated(rng: random.Random, n: int, m: int):
    price = [Fraction(rng.randint(1, 6)) for _ in range(m)]
    cost = [
        [Fraction(rng.randint(0, 8), rng.randint(1, 2)) for _ in range(m)]
        for _ in range(n)
    ]
    demand = [
        [Fraction(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(m)]
        for _ in range(n)
    ]
    inst = Instance(
        tuple(f"p{i+1}" for i in range(n)),
        tuple(f"m{j+1}" for j in range(m)),
        tuple(price),
        tuple(tuple(row) for row in cost),
        tuple(tuple(row) for row in demand),
        tuple([None] * n),
    )
    return normalize(inst)


def random_capacitated_integral(rng: random.Random, n: int, m: int):
    price = [Fraction(rng.randint(1, 9)) for _ in range(m)]
    cost = [[Fraction(rng.randint(0, 9)) for _ in range(m)] for _ in range(n)]
    demand = [[Fraction(rng.randint(0, 4)) for _ in range(m)] for _ in range(n)]
    capacity = [
        Fraction(sum(demand[i]) + rng.randint(0, 5)) for i in range(n)
    ]
    inst = Instance(
        tuple(f"p{i+1}" for i in range(n)),
        tuple(f"m{j+1}" for j in range(m)),
        tuple(price),
        tuple(tuple(row) for row in cost),
        tuple(tuple(row) for row in demand),
        tuple(capacity),
    )
    return normalize(inst)


def cold_oracle(inst):
    """The instance's characteristic function, one cold `value_general`
    solve per call: independent of `coalition_table`'s warm walk."""
    return lambda s: value_general(inst, s)


def record_warm_moves(monkeypatch) -> list[int]:
    """Record, as a mask, the coalition that each `WarmStart.move` re-solves
    for; each program's walk starts at the empty coalition.  Every move
    must shift one player's m + 1 right-hand sides, by the amounts that
    player adds on joining or takes on leaving: market rows 0..m-1, then
    its capacity row m + i, which names player i."""
    reads, masks = [], {}
    real = WarmStart.move

    def move(self, change):
        m = len(change) - 1
        player = change[m][0] - m
        assert [k for k, _ in change[:m]] == list(range(m)) and player >= 0
        masks[self] = mask = masks.get(self, 0) ^ 1 << player
        assert all(d >= 0 if mask >> player & 1 else d <= 0 for _, d in change)
        reads.append(mask)
        return real(self, change)

    monkeypatch.setattr(WarmStart, "move", move)
    return reads


def level_program(n, masks, values, fixed) -> LinearProgram:
    """max epsilon s.t. x(S) - epsilon >= v(S) for S in masks, x(T) = r_T for
    (T, r_T) in fixed; variables x_1..x_n, epsilon, all free.  The program
    the nucleolus level loop solves on its warm dual tableau."""
    def chi(mask):
        return tuple(mask >> k & 1 for k in range(n))

    rows = tuple(chi(m) + (-1,) for m in masks) + tuple(chi(t) + (0,) for t, _ in fixed)
    rels = (GE,) * len(masks) + (EQ,) * len(fixed)
    rhs = tuple(values[m] for m in masks) + tuple(r for _, r in fixed)
    return LinearProgram(MAX, (0,) * n + (1,), rows, rels, rhs, (FREE,) * (n + 1))


def dual_program(lp: LinearProgram) -> tuple[LinearProgram, tuple[int, ...]]:
    """The dual of a program with at least one row, and flips[i] = -1 where
    row i's inequality was reversed: row i's dual is flips[i] times the
    dual program's variable i."""
    keep = LE if lp.sense == MAX else GE
    flips, rows, rhs, doms = [], [], [], []
    for row, rel, b in zip(lp.rows, lp.relations, lp.rhs):
        flip = -1 if rel not in (EQ, keep) else 1
        flips.append(flip)
        rows.append(row if flip == 1 else tuple(-a for a in row))
        rhs.append(flip * b)
        doms.append(FREE if rel == EQ else NONNEG)
    dual_rel = GE if lp.sense == MAX else LE
    dual = LinearProgram(
        MIN if lp.sense == MAX else MAX, tuple(rhs), tuple(zip(*rows)),
        tuple(EQ if d == FREE else dual_rel for d in lp.domains), lp.objective, tuple(doms),
    )
    return dual, tuple(flips)


def solve_on_dual(lp: LinearProgram, tight: bool = False) -> LpResult:
    """Reference cold solve for programs with many more rows than variables,
    such as the 2^n - 2-row nucleolus level programs: `solve_lp` on the
    dual program, with x, the duals and the status mapped back; it shares
    no code with `LazyRows`, the level tableau it checks.  Tight rows are
    read off the row activities, and only when asked for."""
    if not lp.num_rows:
        return solve_lp(lp)
    dual, flips = dual_program(lp)
    res = solve_lp(dual)
    if res.status == "unbounded":
        return LpResult("infeasible")
    if res.status == "infeasible":  # lp is unbounded or infeasible: settle it directly
        return solve_lp(lp)
    x = res.duals  # the dual program's row multipliers are lp's variables
    tight_rows = None
    if tight:
        tight_rows = tuple(sum(a * v for a, v in zip(row, x) if a) == b
                           for row, b in zip(lp.rows, lp.rhs))
    return LpResult("optimal", res.value, x, tuple(f * y for f, y in zip(flips, res.x)), tight_rows)


def lazy_result(res) -> LpResult:
    """The `LpResult` that an integer `LazyRows.solve` result stands for,
    exactly: x and its value, the last coordinate, over den; the duals
    -u_i / div of the `>=` rows, then w_t / div of the equalities; the
    `>=` rows' tight flags, then True for each equality."""
    if res is None:
        return LpResult("infeasible")
    nums, den, y, div, tight = res
    assert den > 0 and div > 0 and all(u >= 0 for u in y[:len(tight)])
    x = tuple(Fraction(v, den) for v in nums)
    duals = [Fraction(-u, div) for u in y[:len(tight)]] + [Fraction(w, div) for w in y[len(tight):]]
    return LpResult("optimal", x[-1], x, tuple(duals),
                    tuple(tight) + (True,) * (len(y) - len(tight)))


class RowSpace:
    """Incremental exact row space (reduced echelon form) over Q."""

    def __init__(self):
        self._rows: list[list[Fraction]] = []
        self._pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _residual(self, vec) -> list[Fraction]:
        v = [Fraction(a) for a in vec]
        for row, p in zip(self._rows, self._pivots):
            if v[p]:
                f = v[p]
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def contains(self, vec) -> bool:
        return not any(self._residual(vec))

    def add(self, vec) -> bool:
        """Insert vec; returns True if it increased the rank."""
        v = self._residual(vec)
        for p, a in enumerate(v):
            if a:
                v = [b / a for b in v]
                for i, row in enumerate(self._rows):
                    if row[p]:
                        f = row[p]
                        self._rows[i] = [x - f * y for x, y in zip(row, v)]
                self._rows.append(v)
                self._pivots.append(p)
                return True
        return False


def solve_linear_system(rows, rhs) -> tuple[Fraction, ...]:
    """Solve A x = b exactly for square nonsingular A by Fraction
    Gauss-Jordan elimination."""
    n = len(rows)
    if any(len(r) != n for r in rows) or len(rhs) != n:
        raise InputError("solve_linear_system needs a square system")
    a = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise InternalError("singular system in solve_linear_system")
        a[col], a[piv] = a[piv], a[col]
        f = a[col][col]
        a[col] = [v / f for v in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                g = a[r][col]
                a[r] = [v - g * w for v, w in zip(a[r], a[col])]
    return tuple(a[r][n] for r in range(n))


class ShapleyWeights(NamedTuple):
    """Ordering weights beta_t = (t-1)!(n-t)!/n! for coalition sizes 1..n."""

    n: int
    beta: tuple[Fraction, ...]

    def of_size(self, t: int) -> Fraction:
        return self.beta[t - 1]


def shapley_weights(n: int) -> ShapleyWeights:
    fact = [factorial(k) for k in range(n + 1)]
    beta = tuple(Fraction(fact[t - 1] * fact[n - t], fact[n]) for t in range(1, n + 1))
    return ShapleyWeights(n, beta)


def random_table_oracle(rng: random.Random, n: int):
    """A characteristic function read from a random table of rationals."""
    vals = {m: Fraction(rng.randint(-6, 12), rng.randint(1, 6)) for m in range(1, 1 << n)}
    return lambda s: vals[s.mask]


def reference_core_check(v, x, n) -> CoreCheck:
    """Core membership by Fraction enumeration, one oracle call per
    coalition; reports the smallest mask among the most violated."""
    x = [Fraction(c) for c in x]
    full = (1 << n) - 1
    if sum(x) != v(Coalition(full)):
        raise InputError("allocation does not distribute v(N) exactly")
    worst_mask, worst_excess = None, None
    for mask in range(1, full):
        xs = sum((x[k] for k in range(n) if mask >> k & 1), Fraction(0))
        excess = xs - v(Coalition(mask))
        if excess < 0 and (worst_excess is None or excess < worst_excess):
            worst_mask, worst_excess = mask, excess
    if worst_mask is None:
        return CoreCheck(True)
    return CoreCheck(False, Coalition(worst_mask), worst_excess)


def reference_shapley_bruteforce(value, n) -> Allocation:
    """Average marginal contribution, weighted by beta_|S|, in Fractions."""
    full = (1 << n) - 1
    vals = [Fraction(0)] + [Fraction(value(Coalition(m))) for m in range(1, full + 1)]
    beta = shapley_weights(n).of_size
    values = tuple(
        sum((beta(m.bit_count()) * (vals[m] - vals[m & ~(1 << i)])
             for m in range(1, full + 1) if m >> i & 1), Fraction(0))
        for i in range(n)
    )
    return Allocation(values, vals[full], method="shapley (brute force)")


def reference_separate(g, x, epsilon, span):
    """The separation cut scanned over Fraction weights, 1-based players,
    returning a mask or None; `span` answers `contains(mask)`.  The integer
    cut must return the same mask at every point."""
    n = g.n
    for i in range(1, n + 1):
        a = g.alpha[i - 1]
        items = sorted(((x[j - 1] - a * g.share[j - 1], j) for j in range(i + 1, n + 1)))
        p = len(items)
        bound = epsilon - (x[i - 1] - a * g.share[i - 1])
        jbar = 0
        total = Fraction(0)
        while jbar < p and items[jbar][0] <= 0:
            total += items[jbar][0]
            jbar += 1
        if total >= bound:
            continue
        mask = 1 << (i - 1)
        for k in range(jbar):
            mask |= 1 << (items[k][1] - 1)
        if not span.contains(mask):
            return mask
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
                return cand
        if high < p:
            w, j = items[high]
            cand = mask | 1 << (j - 1)
            if total + w < bound and not span.contains(cand):
                return cand
    return None


def reference_excesses(table, up, xs):
    """`game.excesses` by the low-bit recurrence x(S) = x(S - low) + x_low,
    reading only the first log2(len(table)) entries of xs."""
    sums = [0] * len(table)
    for mask in range(1, len(sums)):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + xs[low.bit_length() - 1]
    return [s - t * up for s, t in zip(sums, table)]


def reference_bruteforce_cut(table, n, nums, up, span):
    """The brute-force route's cut in its batched form: up to 4n coalitions
    violated at the point nums[:n] / up, level nums[n] / up, outside `span`,
    least excess first, ties to the smaller mask."""
    violated = sorted((e, m) for m, e in enumerate(reference_excesses(table, up, nums))
                      if e < nums[n])
    return [m for _, m in violated if not span.contains(m)][:4 * n]


def random_coalition(rng: random.Random, n: int) -> Coalition:
    mask = rng.randrange(1, 1 << n)
    return Coalition(mask)


def assert_optimal_certificate(lp, res):
    """Verify an optimal LpResult end to end with exact arithmetic."""
    assert res.status == "optimal"
    x, y = res.x, res.duals

    activities = []
    for row, rel, b in zip(lp.rows, lp.relations, lp.rhs):
        activity = sum(a * xi for a, xi in zip(row, x))
        activities.append(activity)
        if rel == "<=":
            assert activity <= b
        elif rel == ">=":
            assert activity >= b
        else:
            assert activity == b
    for dom, xj in zip(lp.domains, x):
        if dom == "nonneg":
            assert xj >= 0

    assert sum(c * xi for c, xi in zip(lp.objective, x)) == res.value
    assert sum(yi * b for yi, b in zip(y, lp.rhs)) == res.value

    sign = 1 if lp.sense == "max" else -1
    for rel, yi, activity, b in zip(lp.relations, y, activities, lp.rhs):
        if rel == "<=":
            assert sign * yi >= 0
        elif rel == ">=":
            assert sign * yi <= 0
        assert yi * (activity - b) == 0

    for j, (dom, cj) in enumerate(zip(lp.domains, lp.objective)):
        pull = sum(y[i] * lp.rows[i][j] for i in range(lp.num_rows))
        reduced = sign * (pull - cj)
        if dom == "free":
            assert pull == cj
        else:
            assert reduced >= 0
            assert x[j] * (pull - cj) == 0

    assert res.tight is not None
    for flag, activity, b in zip(res.tight, activities, lp.rhs):
        assert flag == (activity == b)

    # with only nonnegative variables, a basic solution means the binding
    # rows and binding bounds pin x uniquely
    if all(dom == "nonneg" for dom in lp.domains):
        binding = RowSpace()
        for row, flag in zip(lp.rows, res.tight):
            if flag:
                binding.add(row)
        for j, xj in enumerate(x):
            if xj == 0:
                unit = [Fraction(0)] * lp.num_vars
                unit[j] = Fraction(1)
                binding.add(unit)
        assert binding.rank == lp.num_vars
