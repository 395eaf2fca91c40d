"""Shapley values: closed form for single-market games plus a subset oracle
that reads any characteristic function's integer `game.coalition_table`."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from typing import Callable, NamedTuple

from .errors import InputError
from .game import Allocation, Coalition, SingleMarketGame, coalition_table, excesses

SUBSET_LIMIT = 10

_ZERO = Fraction(0)


def marginal_contribution(g: SingleMarketGame, coalition: Coalition, i: int) -> Fraction:
    """v(T) - v(T \\ {i}) in canonical space, by the three-case split.

    The best profit in T either belongs to a stronger player (i only adds
    its share), to i itself (i also upgrades everyone else's margin), or
    T is the singleton {i}.
    """
    if i not in coalition:
        raise InputError(f"player {i} is not in {coalition}")
    if coalition.mask >> g.n:
        raise InputError(f"coalition {coalition} exceeds the {g.n}-player game")
    rest = coalition.minus(Coalition.of([i]))
    if not rest:
        return g.share[i - 1] * g.alpha[i - 1]
    h = (rest.mask & -rest.mask).bit_length()  # strongest remaining player
    if h < i:
        return g.share[i - 1] * g.alpha[h - 1]
    lam_rest = sum((g.share[j - 1] for j in rest.members()), _ZERO)
    return lam_rest * (g.alpha[i - 1] - g.alpha[h - 1]) + g.share[i - 1] * g.alpha[i - 1]


class _OrderingSums(NamedTuple):
    """The inner ordering sums of the closed form, over one denominator.

    over[h] / den = sum_l C(n-h, l) beta_{l+2}, under[h] / den =
    sum_l C(n-h-1, l) beta_{l+2} and third[h] / den = sum_l C(n-h-1, l)
    beta_{l+3}, indexed by the weaker pivot h (entry 0 unused); over and
    third are only consulted for h >= 2 and stay 0 at h = 1, where they
    would index beta past n.  den is a multiple of n.
    """

    den: int
    over: tuple[int, ...]
    under: tuple[int, ...]
    third: tuple[int, ...]


@lru_cache(maxsize=None)
def _ordering_sums(n: int) -> _OrderingSums:
    # beta_t = integral_0^1 p^(t-1) (1-p)^(n-t) dp, so by the binomial theorem
    # sum_l C(m, l) beta_{l+k} = integral p^(k-1) (1-p)^(n-k-m) dp
    #                          = (k-1)! (n-k-m)! / (n-m)!,
    # which gives over = 1/(h(h-1)), under = 1/(h(h+1)) and
    # third = 2/((h-1)h(h+1)); the sums are empty (0) at h = n for the
    # last two.  Tests check these against the binomial sums themselves.
    over = [_ZERO] * (n + 1)
    under = [_ZERO] * (n + 1)
    third = [_ZERO] * (n + 1)
    for h in range(1, n + 1):
        if h >= 2:
            over[h] = Fraction(1, h * (h - 1))
        if h < n:
            under[h] = Fraction(1, h * (h + 1))
        if 2 <= h < n:
            third[h] = Fraction(2, (h - 1) * h * (h + 1))
    den = lcm(n, *(v.denominator for v in over + under + third))

    def scaled(values):
        return tuple(v.numerator * (den // v.denominator) for v in values)

    return _OrderingSums(den, scaled(over), scaled(under), scaled(third))


def shapley_single_market(g: SingleMarketGame) -> Allocation:
    """Closed-form Shapley value, evaluated block by block.

    Kept as four additive blocks (stronger players' margins, the lone
    term, own-margin over weaker minima, and the upgrade block) so that
    any transcription slip surfaces against the subset oracle rather
    than hiding in a hand simplification.  Each block is a prefix or
    suffix sum over the pivot h, so one game costs O(n) integer
    operations once the ordering sums for its n (also O(n)) are cached:

        stronger_i = share_i * sum_{h<i} alpha_h * under_h
        lone_i     = alpha_i * share_i / n
        own_i      = alpha_i * share_i * sum_{h>i} over_h
        upgrade_i  = alpha_i * sum_{h>i} c_h - sum_{h>i} alpha_h * c_h,
                     c_h = share_h * over_h + tail_h * third_h,

    where tail_h is the total share of the players after h.  Every value
    is a numerator over alpha_den * share_den * sums.den.
    """
    n = g.n
    sums = _ordering_sums(n)
    form = g.integer_form
    alpha, lam = form.alpha, form.share
    one_nth = sums.den // n

    under_prefix = [0] * n  # under_prefix[i-1] = sum_{h<i} alpha_h * under_h
    for h in range(1, n):
        under_prefix[h] = under_prefix[h - 1] + alpha[h - 1] * sums.under[h]
    # the suffix sums over the pivots h > i fill as i runs from n down to 1
    values = [0] * n
    tail = over_sum = c_sum = ac_sum = 0
    for i in range(n, 0, -1):
        a, s = alpha[i - 1], lam[i - 1]
        stronger = s * under_prefix[i - 1]
        lone = a * s * one_nth
        own = a * s * over_sum
        upgrade = a * c_sum - ac_sum
        values[i - 1] = stronger + lone + own + upgrade
        # fold pivot h = i into the suffix sums of the players before it
        c = s * sums.over[i] + tail * sums.third[i]
        over_sum += sums.over[i]
        c_sum += c
        ac_sum += a * c
        tail += s

    scale = g.scale
    den = form.den * sums.den * scale.denominator
    out = [_ZERO] * n
    for k, v in enumerate(values):
        out[g.perm[k] - 1] = Fraction(v * scale.numerator, den)
    return Allocation(
        tuple(out), g.alpha[0] * scale, method="shapley (closed form)"
    )


def shapley_bruteforce(value: Callable[[Coalition], Fraction], n: int) -> Allocation:
    """Average marginal contribution by direct subset enumeration (n <= 10).

    Each table marginal v(S) - v(S - i) is weighted by the integer
    (|S|-1)!(n-|S|)!; each player's sum is divided once, by n! * den.
    The value is in the core iff every proper coalition's excess on the
    same table is nonnegative.
    """
    table, den = coalition_table(value, n, SUBSET_LIMIT, "brute-force Shapley")
    fact = [factorial(k) for k in range(n + 1)]
    weight = [0] + [fact[t - 1] * fact[n - t] for t in range(1, n + 1)]
    values = []
    for i in range(n):
        bit = 1 << i
        total = 0
        for mask in range(bit, len(table)):
            if mask & bit:
                total += weight[mask.bit_count()] * (table[mask] - table[mask ^ bit])
        values.append(Fraction(total, fact[n] * den))
    in_core = min(excesses(table, den, values)[0][1:-1], default=0) >= 0
    return Allocation(values, Fraction(table[-1], den), method="shapley (brute force)",
                      in_core=in_core)
