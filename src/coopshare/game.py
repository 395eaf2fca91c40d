"""Game data model: instances, normalization, coalition values, core checks.

Players are 1-based everywhere.  A `SingleMarketGame` lives in its own
canonical space (players sorted by unit profit, shares summing to one);
its `perm`/`scale` metadata maps canonical results back to original
player order and demand units, and every allocation-producing operation
in the package reports in original terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul
from typing import Callable, NamedTuple, Optional, Sequence, Union

from .errors import (
    DegenerateMarketError,
    InputError,
    InternalError,
    SizeError,
)
from .ratlp import (EQ, LE, MAX, NONNEG, OPTIMAL, LinearProgram, WarmStart, _shown, rat,
                    solve_lp)

ENUMERATION_LIMIT = 20  # 2^n coalition scans are desk-scale tools only


@dataclass(frozen=True)
class Coalition:
    """A set of players stored as a bitmask (bit i-1 = player i).

    Python integers are arbitrary precision, so the same representation
    covers any number of players.
    """

    mask: int

    def __post_init__(self):
        if type(self.mask) is not int or self.mask < 0:  # bool fails the type test too
            raise InputError(f"not a coalition mask: {_shown(self.mask, repr)}")

    @classmethod
    def of(cls, players) -> "Coalition":
        mask = 0
        for p in players:
            if type(p) is not int or p < 1:
                raise InputError(f"player index must be a positive int, got {_shown(p, repr)}")
            mask |= 1 << (p - 1)
        return cls(mask)

    @classmethod
    def full(cls, n: int) -> "Coalition":
        return cls((1 << n) - 1)

    def members(self) -> tuple[int, ...]:
        out, mask, i = [], self.mask, 1
        while mask:
            if mask & 1:
                out.append(i)
            mask >>= 1
            i += 1
        return tuple(out)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, player: int) -> bool:
        return player >= 1 and bool(self.mask >> (player - 1) & 1)

    def __bool__(self) -> bool:
        return self.mask != 0

    def union(self, other: "Coalition") -> "Coalition":
        return Coalition(self.mask | other.mask)

    def minus(self, other: "Coalition") -> "Coalition":
        return Coalition(self.mask & ~other.mask)

    def __str__(self) -> str:
        return "{" + ",".join(str(p) for p in self.members()) + "}"


def _at(what: str, *index: int) -> str:
    """`what` subscripted by 0-based indices, counted from 1 in the text."""
    return what + "".join(f"[{k + 1}]" for k in index)


def _names(values, what: str) -> tuple[str, ...]:
    """A nonempty list of unique strings."""
    if not isinstance(values, (list, tuple)):
        raise InputError(f"{what} must be a list of names")
    if not values:
        raise InputError("need at least one player and one market")
    for k, name in enumerate(values):
        if not isinstance(name, str):
            raise InputError(f"{_at(what, k)}: name must be a string")
    if len(set(values)) != len(values):
        raise InputError(f"names in {what} must be unique")
    return tuple(values)


def _row(values, m: int, what: str, *index: int, nonnegative=False, optional=False):
    """m rationals, or None where `optional`; each number is read by `rat`
    once.  `what` and `index` locate the row, formatted only on an error."""
    if not isinstance(values, (list, tuple)) or len(values) != m:
        raise InputError(f"{_at(what, *index)} must be a list of length {m}")
    row = []
    for j, value in enumerate(values):
        if value is not None or not optional:
            try:
                value = rat(value)
            except InputError as exc:
                raise InputError(f"{_at(what, *index, j)}: {exc}") from None
            if nonnegative and value.numerator < 0:
                raise InputError(f"{_at(what, *index, j)} is negative: {_shown(value)}")
        row.append(value)
    return tuple(row)


def _matrix(values, n: int, m: int, what: str, nonnegative=False):
    """An n x m matrix of rationals, one row per player."""
    if not isinstance(values, (list, tuple)) or len(values) != n:
        raise InputError(f"{what} must list one row per player ({n})")
    return tuple(_row(r, m, what, i, nonnegative=nonnegative) for i, r in enumerate(values))


def _capacities(values, demand) -> tuple[Optional[Fraction], ...]:
    """One capacity per player: None for an unbounded producer, else a
    rational that covers the player's own total demand."""
    caps = _row(values, len(demand), "capacity", optional=True)
    for i, cap in enumerate(caps):
        if cap is not None and cap < (own := sum(demand[i])):
            raise InputError(
                f"{_at('capacity', i)} = {_shown(cap)} cannot serve the "
                f"player's own demand {_shown(own)}"
            )
    return caps


class _InstanceBase:
    """What both instance types share: names, demands and capacities.
    Input errors count subscripts from 1; every field is stored as a tuple."""

    def __post_init__(self):
        object.__setattr__(self, "players", _names(self.players, "players"))
        object.__setattr__(self, "markets", _names(self.markets, "markets"))
        demand = _matrix(self.demand, self.n, self.m, "demand", nonnegative=True)
        object.__setattr__(self, "demand", demand)
        object.__setattr__(self, "capacity", _capacities(self.capacity, demand))

    @property
    def n(self) -> int:
        return len(self.players)

    @property
    def m(self) -> int:
        return len(self.markets)

    @property
    def uncapacitated(self) -> bool:
        return all(q is None for q in self.capacity)


@dataclass(frozen=True)
class Instance(_InstanceBase):
    """Raw multi-market data: prices, unit costs, owned demands, capacities.

    capacity[i] is None for an unbounded producer.  Every producer must
    be able to serve their own total demand.
    """

    players: tuple[str, ...]
    markets: tuple[str, ...]
    price: tuple[Fraction, ...]
    cost: tuple[tuple[Fraction, ...], ...]
    demand: tuple[tuple[Fraction, ...], ...]
    capacity: tuple[Optional[Fraction], ...]

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "price", _row(self.price, self.m, "price"))
        object.__setattr__(self, "cost", _matrix(self.cost, self.n, self.m, "cost"))


@dataclass(frozen=True)
class NormalizedInstance(_InstanceBase):
    """Instance with prices and costs folded into unit profits >= 0."""

    players: tuple[str, ...]
    markets: tuple[str, ...]
    profit: tuple[tuple[Fraction, ...], ...]
    demand: tuple[tuple[Fraction, ...], ...]
    capacity: tuple[Optional[Fraction], ...]

    def __post_init__(self):
        super().__post_init__()
        profit = _matrix(self.profit, self.n, self.m, "profit", nonnegative=True)
        object.__setattr__(self, "profit", profit)


def normalize(inst: Instance) -> NormalizedInstance:
    """Fold prices and costs into clamped unit profits max(0, r_j - c_ij).

    Serving at a loss is never useful, so negative margins clamp to zero.
    """
    profit = []
    for row in inst.cost:
        margins = []
        for r, c in zip(inst.price, row):
            num = r.numerator * c.denominator - c.numerator * r.denominator
            margins.append(Fraction(max(0, num), r.denominator * c.denominator))
        profit.append(tuple(margins))
    return NormalizedInstance(inst.players, inst.markets, profit, inst.demand, inst.capacity)


def _numerators(values: Sequence[Fraction], base: int = 1) -> tuple[list[int], int]:
    """Numerators of `values` over the least common multiple of `base` and
    their denominators, and that multiple."""
    den = lcm(base, *(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


class IntegerForm(NamedTuple):
    """A single-market game over integers.

    alpha[k] = alpha_k * alpha_den and share[k] = share_k * share_den, so
    alpha_i * share_j = alpha[i] * share[j] / den for every pair.
    """

    alpha: tuple[int, ...]
    share: tuple[int, ...]
    alpha_den: int
    share_den: int

    @property
    def den(self) -> int:
        return self.alpha_den * self.share_den

    def numerators(self, values: Sequence[Fraction]) -> tuple[list[int], int]:
        """Numerators of `values` over K, the least common multiple of
        `den` and their denominators, and K itself."""
        return _numerators(values, self.den)

    def shares_over(self, k: int) -> list[int]:
        """Shares scaled so that alpha[i] * result[j] = alpha_i * share_j * k;
        k must be a multiple of `den`."""
        up = k // self.den
        return [s * up for s in self.share]


@dataclass(frozen=True)
class SingleMarketGame:
    """One market in canonical form: alpha nonincreasing, shares sum to 1.

    perm[k] is the original 1-based player sitting at canonical position
    k+1; scale is the market's total demand, so original-unit payoffs are
    canonical payoffs times scale.  `integer_form`, the game's data as
    integers over two common denominators, is built from alpha and share
    on construction, and the checks run on it.
    """

    alpha: tuple[Fraction, ...]
    share: tuple[Fraction, ...]
    perm: tuple[int, ...]
    scale: Fraction
    integer_form: IntegerForm = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = len(self.alpha)
        object.__setattr__(self, "alpha", tuple(rat(a) for a in self.alpha))
        object.__setattr__(self, "share", tuple(rat(s) for s in self.share))
        object.__setattr__(self, "scale", rat(self.scale))
        if n == 0 or len(self.share) != n or len(self.perm) != n:
            raise InputError("alpha, share and perm must have equal nonzero length")
        alpha, alpha_den = _numerators(self.alpha)
        share, share_den = _numerators(self.share)
        form = IntegerForm(tuple(alpha), tuple(share), alpha_den, share_den)
        object.__setattr__(self, "integer_form", form)
        if any(form.alpha[k] < form.alpha[k + 1] for k in range(n - 1)):
            raise InputError("alpha must be nonincreasing")
        if form.alpha[-1] < 0:
            raise InputError("alpha must be nonnegative")
        if any(s < 0 for s in form.share):
            raise InputError("shares must be nonnegative")
        if sum(form.share) != form.share_den:
            raise InputError("shares must sum to exactly 1")
        if {type(p) for p in self.perm} != {int} or sorted(self.perm) != list(range(1, n + 1)):
            raise InputError("perm must be a permutation of 1..n")
        if self.scale.numerator <= 0:
            raise InputError("scale must be positive")

    @property
    def n(self) -> int:
        return len(self.alpha)

    def to_original(self, values: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Map a canonical payoff vector to original order and units."""
        out = [Fraction(0)] * self.n
        for k, v in enumerate(values):
            out[self.perm[k] - 1] = v * self.scale
        return tuple(out)

    def map_coalition(self, original: Coalition) -> Coalition:
        """Translate a coalition of original player ids into canonical positions."""
        mask = 0
        for k in range(self.n):
            if self.perm[k] in original:
                mask |= 1 << k
        return Coalition(mask)


def single_market(alpha, share, scale=1) -> SingleMarketGame:
    """Build a canonical game directly from sorted data (identity mapping)."""
    alpha = tuple(rat(a) for a in alpha)
    return SingleMarketGame(alpha, tuple(rat(s) for s in share),
                            tuple(range(1, len(alpha) + 1)), rat(scale))


def to_single_market(inst: NormalizedInstance, market: int) -> SingleMarketGame:
    """Extract market `market` (0-based) as a canonical single-market game.

    Players are ordered by descending profit, ties by original index (a
    reversed stable sort keeps equal keys in order); shares are demand
    fractions of the market total.  Both columns are read as numerators
    over one denominator each, so the sort and the total are on integers.
    """
    if not 0 <= market < inst.m:
        raise InputError(f"market index {market} out of range 0..{inst.m - 1}")
    demand, demand_den = _numerators([row[market] for row in inst.demand])
    total = sum(demand)
    if total == 0:
        raise DegenerateMarketError(
            f"market {inst.markets[market]!r} has zero total demand; "
            "its game is identically zero"
        )
    column = [row[market] for row in inst.profit]
    profit, _ = _numerators(column)
    order = sorted(range(inst.n), key=profit.__getitem__, reverse=True)
    alpha = tuple(column[i] for i in order)
    share = tuple(Fraction(demand[i], total) for i in order)
    perm = tuple(i + 1 for i in order)
    return SingleMarketGame(alpha, share, perm, Fraction(total, demand_den))


def value_single_market(g: SingleMarketGame, coalition: Coalition) -> Fraction:
    """Coalition value in canonical units: best member profit times joint share."""
    if coalition.mask == 0:
        return Fraction(0)
    if coalition.mask >> g.n:
        raise InputError(f"coalition {coalition} exceeds the {g.n}-player game")
    best = (coalition.mask & -coalition.mask).bit_length() - 1
    form = g.integer_form
    lam = sum(s for k, s in enumerate(form.share) if coalition.mask >> k & 1)
    return Fraction(form.alpha[best] * lam, form.den)


def _transport_program(inst, players, capped, rhs) -> tuple[list, LinearProgram]:
    """The cells (i, j) and the program over y[i][j] for `players`: maximize
    profit, meet market j's demand rhs[j], and keep each `capped` player's
    total shipments within the rest of rhs, in order.  Players are 1-based."""
    cells = [(i, j) for i in players for j in range(inst.m)]
    rows = [tuple(int(c == j) for _, c in cells) for j in range(inst.m)]
    rows += [tuple(int(p == i) for p, _ in cells) for i in capped]
    # the instance's entries are validated Fractions; build the program as is
    return cells, LinearProgram(
        MAX,
        tuple(inst.profit[i - 1][j] for i, j in cells),
        tuple(rows),
        (EQ,) * inst.m + (LE,) * len(capped),
        tuple(rhs),
        (NONNEG,) * len(cells),
    )


def value_general(
    inst: NormalizedInstance,
    coalition: Coalition,
    want_plan: bool = False,
):
    """Optimal joint profit of a coalition, with an optional production plan.

    Uncapacitated coalitions use the per-market closed form (each market
    served entirely by the coalition's best producer); otherwise the
    transportation-style program is solved exactly.  Returns the value,
    or (value, plan) with plan[i][j] in original player/market indexing.
    """
    if coalition.mask == 0:
        raise InputError("coalition value is defined for nonempty coalitions")
    if coalition.mask >> inst.n:
        raise InputError(f"coalition {coalition} exceeds the {inst.n}-player instance")
    members = coalition.members()
    uncap = all(inst.capacity[i - 1] is None for i in members)
    if uncap:
        value = Fraction(0)
        plan = [[Fraction(0)] * inst.m for _ in range(inst.n)] if want_plan else None
        for j in range(inst.m):
            dj = sum(inst.demand[i - 1][j] for i in members)
            best = max(members, key=lambda i: (inst.profit[i - 1][j], -i))
            value += inst.profit[best - 1][j] * dj
            if want_plan:
                plan[best - 1][j] = dj
        return (value, plan) if want_plan else value

    # LP over y[i][j] for coalition members: maximize profit, meet the
    # coalition's pooled demand per market, respect capacities.
    capped = [i for i in members if inst.capacity[i - 1] is not None]
    rhs = [sum(inst.demand[i - 1][j] for i in members) for j in range(inst.m)]
    rhs += [inst.capacity[i - 1] for i in capped]
    cells, lp = _transport_program(inst, members, capped, rhs)
    res = solve_lp(lp)
    if res.status != OPTIMAL:
        raise InternalError(
            f"coalition value program ended {res.status}; instance invariants "
            "guarantee a feasible bounded program"
        )
    if not want_plan:
        return res.value
    plan = [[Fraction(0)] * inst.m for _ in range(inst.n)]
    for (i, j), y in zip(cells, res.x):
        plan[i - 1][j] = y
    return res.value, plan


def coalition_table(
    source: Union[NormalizedInstance, Callable[[Coalition], Fraction], tuple[list[int], int]],
    n: int, limit: int, what: str
) -> tuple[list[int], int]:
    """Every coalition value of an n-player game, enumerated once for the
    2^n routes: numerators over their least common denominator, indexed by
    mask (entry 0, the empty coalition, is 0), and that denominator.

    `source` is one of:
    * a value oracle, called once per coalition, in Gray order, so that each
      coalition is one player off the last;
    * an n-player `NormalizedInstance`, read as integers with no oracle and
      no `Fraction`.  An uncapacitated one runs the subset recurrence of
      `_uncapped_table`.  A capacitated one walks the Gray order through
      one `WarmStart` over all players, started at the empty coalition,
      where every right-hand side is 0: market j's row reads D_j(S) and
      player i's capacity row c_i [i in S], with c_i = D(N), which never
      binds, for an uncapped player.  Each step moves the toggled
      player's m demand entries and one capacity entry, and nothing else,
      and re-solves from the last optimal basis.  The players are ranked
      by ascending capacity (an uncapped one counting as D(N), ties to
      the lower index), so that the least capacity, which rarely moves
      the optimal basis, is toggled most often;
    * a table this function returned, passed through.

    Checks 1 <= n <= limit first; `what` names the route in the error.
    """
    if n < 1:
        raise InputError("need at least one player")
    if n > limit:
        raise SizeError(f"{what} is limited to {limit} players, got {n}")
    if isinstance(source, tuple):
        if len(source[0]) != 1 << n:
            raise InputError(f"coalition table does not list the 2^{n} coalitions")
        return source
    if isinstance(source, NormalizedInstance):
        if source.n != n:
            raise InputError(f"the instance has {source.n} players, not {n}")
        if source.uncapacitated:
            return _uncapped_table(source)
        m, total = source.m, sum(map(sum, source.demand))
        caps = [total if q is None else q for q in source.capacity]
        data, scale = _numerators([*caps, *(d for row in source.demand for d in row)])
        # the (row, amount) pairs that player i adds to the right-hand side
        rows = [[*enumerate(data[n + i * m:n + i * m + m]), (m + i, data[i])]
                for i in range(n)]
        players = range(1, n + 1)
        warm = WarmStart(_transport_program(source, players, players, [0] * (m + n))[1])
        order = sorted(range(n), key=data.__getitem__)  # by capacity, ties by index

        def read(mask, i):
            sign = 1 if mask >> i & 1 else -1
            num, d = warm.move([(k, sign * a) for k, a in rows[i]])
            return num, d * scale
    else:
        def read(mask, _):
            v = rat(source(Coalition(mask)))
            return v.numerator, v.denominator
        order = range(n)
    table, dens = [0] * (1 << n), [1] * (1 << n)  # plain ints: no 2^n Fractions
    mask = 0
    for k in range(1, 1 << n):
        i = order[(k & -k).bit_length() - 1]  # Gray order: step k toggles order[ctz(k)]
        mask ^= 1 << i
        num, d = read(mask, i)
        common = gcd(num, d)
        table[mask], dens[mask] = num // common, d // common
    den = lcm(*dens)
    for mask, d in enumerate(dens):
        table[mask] *= den // d
    return table, den


def _uncapped_table(inst: NormalizedInstance) -> tuple[list[int], int]:
    """`coalition_table` of an uncapacitated instance, where v(S) = sum_j
    best_j(S) * D_j(S), by the subset recurrence D_j(S) = D_j(S - low) +
    d_low,j and best_j(S) = max(best_j(S - low), p_low,j): O(m) integer
    operations per coalition, over the profits' common denominator times
    the demands'.  The walk is depth-first, each S extended by every player
    below its lowest one, so it holds at most n partial rows at a time.
    Over a common denominator D the least one is D / gcd(D, every value)."""
    n, m = inst.n, inst.m
    profit, p_den = _numerators([p for row in inst.profit for p in row])
    demand, d_den = _numerators([d for row in inst.demand for d in row])
    rows = [(profit[i * m:i * m + m], demand[i * m:i * m + m]) for i in range(n)]
    table = [0] * (1 << n)

    def extend(mask: int, below: int, best: list[int], sums: list[int]) -> None:
        for k in range(below):
            p, d = rows[k]
            b, s = list(map(max, best, p)), list(map(add, sums, d))
            table[mask | 1 << k] = sum(map(mul, b, s))
            if k:
                extend(mask | 1 << k, k, b, s)

    extend(0, n, [0] * m, [0] * m)
    den = p_den * d_den
    common = gcd(den, *table)
    if common > 1:
        for mask in range(1, len(table)):
            table[mask] //= common
    return table, den // common


def excesses(table: Sequence[int], up: int, xs: Sequence[int]) -> list[int]:
    """x(S) - up * v(S) for every mask S of a coalition table, x given by
    the integers xs: the excesses over xs's denominator when that is up
    times the table's.  x(S) comes by doubling: the sums of the masks
    below 2^k, each plus x_k, are the sums of the masks from 2^k to 2^(k+1).
    Entries of xs past the table's n players (an epsilon) are ignored."""
    sums = [0]
    for x in xs[:len(table).bit_length() - 1]:
        sums += [s + x for s in sums]
    return [s - t * up for s, t in zip(sums, table)]


def min_excess(
    g: SingleMarketGame, x: Sequence[Fraction]
) -> tuple[Coalition, Fraction]:
    """Minimize x(S) - v(S) over proper nonempty coalitions, in O(n^2).

    For each candidate best member k the optimal set takes k plus every
    later player whose payoff undercuts alpha_k times their share; zero
    contributors are excluded.  With a single player the only coalition
    is the grand one.  Ties resolve to the smallest candidate index.
    """
    n = g.n
    if len(x) != n:
        raise InputError(f"payoff vector has length {len(x)}, expected {n}")
    x = [rat(v) for v in x]
    if n == 1:
        return Coalition(1), x[0] - g.alpha[0] * g.share[0]
    form = g.integer_form
    xs, den = form.numerators(x)  # every excess below is a numerator over den
    share = form.shares_over(den)
    best_mask, best_val = None, None
    for k in range(n):
        a = form.alpha[k]
        mask = 1 << k
        total = xs[k] - a * share[k]
        worst = None  # least negative contribution, dropped if S would be N
        for i in range(k + 1, n):
            w = xs[i] - a * share[i]
            if w < 0:
                mask |= 1 << i
                total += w
                if worst is None or w > worst[1]:
                    worst = (i, w)
        if mask == (1 << n) - 1:
            mask &= ~(1 << worst[0])
            total -= worst[1]
        if best_val is None or total < best_val:
            best_mask, best_val = mask, total
    return Coalition(best_mask), Fraction(best_val, den)


@dataclass(frozen=True)
class CoreCheck:
    in_core: bool
    violated: Optional[Coalition] = None
    excess: Optional[Fraction] = None


def core_check(
    v: Union[SingleMarketGame, NormalizedInstance, Callable[[Coalition], Fraction],
             tuple[list[int], int]],
    x,
    n: Optional[int] = None,
) -> CoreCheck:
    """Test x(S) >= v(S) for every proper coalition.

    Single-market games use the polynomial minimum-excess scan (x given
    in the game's canonical space); anything else (an instance, a value
    oracle or a table) is a source for `coalition_table` (guarded at
    n <= 20), and the check reports the smallest mask among the most
    violated coalitions.  x is an Allocation or a plain payoff sequence of
    length n and must be efficient.
    """
    if isinstance(x, Allocation):
        x = x.values
    if isinstance(v, SingleMarketGame):
        g = v
        if len(x) != g.n:
            raise InputError(f"payoff vector has length {len(x)}, expected {g.n}")
        xs, den = _numerators([rat(c) for c in x])
        if sum(xs) * g.alpha[0].denominator != g.alpha[0].numerator * den:
            raise InputError("allocation does not distribute v(N) exactly")
        coalition, excess = min_excess(g, x)
        if excess < 0:
            return CoreCheck(False, coalition, excess)
        return CoreCheck(True)

    if n is None:
        raise InputError("core_check with a value oracle needs the player count")
    x = [rat(c) for c in x]
    if len(x) != n:
        raise InputError(f"payoff vector has length {len(x)}, expected {n}")
    table, den = coalition_table(v, n, ENUMERATION_LIMIT, "core enumeration")
    xs, big = _numerators(x, den)
    excess = excesses(table, big // den, xs)
    if excess[-1]:
        raise InputError("allocation does not distribute v(N) exactly")
    worst_mask, worst_excess = None, 0
    for mask in range(1, len(excess) - 1):
        if excess[mask] < worst_excess:
            worst_mask, worst_excess = mask, excess[mask]
    if worst_mask is None:
        return CoreCheck(True)
    return CoreCheck(False, Coalition(worst_mask), Fraction(worst_excess, big))


@dataclass(frozen=True)
class Allocation:
    """A payoff vector distributing exactly the grand-coalition value.

    `method` and `in_core` are report metadata and never part of
    equality comparisons.
    """

    values: tuple[Fraction, ...]
    total: Fraction
    method: str = field(default="", compare=False)
    in_core: Optional[bool] = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(rat(v) for v in self.values))
        object.__setattr__(self, "total", rat(self.total))
        nums, den = _numerators(self.values)
        if sum(nums) * self.total.denominator != self.total.numerator * den:
            raise InputError(
                f"allocation sums to {sum(self.values)}, expected {self.total}"
            )
