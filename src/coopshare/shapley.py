"""Shapley values: an O(n) closed form for single-market games, with no
per-n cache, plus a subset oracle that reads any characteristic
function's integer `game.coalition_table`, from a value oracle or an
instance."""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from typing import Callable, Union

from .errors import InputError
from .game import (Allocation, Coalition, NormalizedInstance, SingleMarketGame, coalition_table,
                   excesses)

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


def shapley_single_market(g: SingleMarketGame) -> Allocation:
    """Closed-form Shapley value: one prefix sum and one suffix sum.

    With d_h = alpha_h - alpha_{h+1} (alpha_{n+1} = 0) the game splits into
    profit increments, as Littlechild and Owen's airport game does:

        v(S) = alpha_{min S} * lam(S) = sum_h d_h * lam(S) * [S meets {1..h}],

    and lam(S) * [S meets {1..h}] sums lam_j over the games
    [j in S and S meets {1..h}].  In one such game player j alone gets 1
    if j <= h.  If j > h, j gets h/(h+1) (it is pivotal unless it comes
    first among {1..h, j}) and each of 1..h gets 1/(h(h+1)) (pivotal when
    it comes second, after j).  Summing over j and h by linearity,

        phi_i = lam_i * (alpha_1 - sum_{h<i} d_h / (h+1))
                + sum_{i<=h<n} d_h * T_h / (h(h+1)),

    where T_h is the total share of the players after h.  h + 1 and
    h(h+1) divide L = lcm(1..n) for h < n, so each value is an integer
    over alpha_den * share_den * L, and one game costs O(n) integer
    operations.
    """
    n = g.n
    form = g.integer_form
    alpha, lam = form.alpha, form.share
    big = lcm(*range(1, n + 1))
    upper = [0] * n  # L * the suffix sum over i <= h < n
    tail = 0  # T_h
    for h in range(n - 1, 0, -1):
        tail += lam[h]
        upper[h - 1] = upper[h] + (alpha[h - 1] - alpha[h]) * tail * (big // (h * (h + 1)))
    scale = g.scale
    den = form.den * big * scale.denominator
    out = [_ZERO] * n
    lower = alpha[0] * big  # L * (alpha_1 - the prefix sum over h < i)
    for i in range(1, n + 1):
        if i > 1:
            lower -= (alpha[i - 2] - alpha[i - 1]) * (big // i)
        value = lam[i - 1] * lower + upper[i - 1]
        out[g.perm[i - 1] - 1] = Fraction(value * scale.numerator, den)
    return Allocation(
        tuple(out), g.alpha[0] * scale, method="shapley (closed form)"
    )


def shapley_bruteforce(value: Union[NormalizedInstance, Callable[[Coalition], Fraction]],
                       n: int) -> Allocation:
    """Average marginal contribution by direct subset enumeration (n <= 10)
    over the table of a value oracle or an n-player instance.

    Each table marginal v(S) - v(S - i) is weighted by the integer
    (|S|-1)!(n-|S|)!; each player's sum is divided once, by n! * den.
    The value is in the core iff every proper coalition's excess on the
    same table is nonnegative.
    """
    table, den = coalition_table(value, n, SUBSET_LIMIT, "brute-force Shapley")
    fact = [factorial(k) for k in range(n + 1)]
    weight = [0] + [fact[t - 1] * fact[n - t] for t in range(1, n + 1)]
    totals = []
    for i in range(n):
        bit = 1 << i
        total = 0
        for mask in range(bit, len(table)):
            if mask & bit:
                total += weight[mask.bit_count()] * (table[mask] - table[mask ^ bit])
        totals.append(total)
    in_core = min(excesses(table, fact[n], totals)[1:-1], default=0) >= 0
    return Allocation([Fraction(t, fact[n] * den) for t in totals], Fraction(table[-1], den),
                      method="shapley (brute force)", in_core=in_core)
