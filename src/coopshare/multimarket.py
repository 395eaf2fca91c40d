"""Uncapacitated multi-market games as sums of single-market games.

Coalition values add across markets, so the per-market engines combine:
Shapley additively recovers the exact multi-market Shapley value, the
per-market core points sum to a core point, and the per-market nucleoli
sum to a core allocation that is generally *not* the true nucleolus
(the brute-force route computes that one).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import DegenerateMarketError, UnsupportedModeError
from .game import (Allocation, NormalizedInstance, SingleMarketGame, _numerators,
                   to_single_market)
from .nucleolus import nucleolus_primal_dual
from .shapley import shapley_single_market


@dataclass(frozen=True)
class MarketDecomposition:
    """Per-market single-market games; zero-demand markets are dropped."""

    instance: NormalizedInstance
    markets: tuple[int, ...]
    games: tuple[SingleMarketGame, ...]
    best_profit: tuple[Fraction, ...]


def decompose(inst: NormalizedInstance) -> MarketDecomposition:
    if not inst.uncapacitated:
        raise UnsupportedModeError(
            "market decomposition needs unlimited capacities; for finite "
            "capacities use --method nucleolus --oracle or --method shapley --oracle"
        )
    markets, games = [], []
    for j in range(inst.m):
        try:
            games.append(to_single_market(inst, j))
        except DegenerateMarketError:  # zero total demand
            continue
        markets.append(j)
    best = tuple(g.alpha[0] for g in games)
    return MarketDecomposition(inst, tuple(markets), tuple(games), best)


def _combine(dec: MarketDecomposition, columns, method: str, in_core) -> Allocation:
    """Per-player sums of `columns`, each n numerators over one denominator,
    added over one common denominator."""
    big = lcm(*(den for _, den in columns))
    sums = [sum(nums[i] * (big // den) for nums, den in columns) for i in range(dec.instance.n)]
    values = tuple(Fraction(v, big) for v in sums)
    return Allocation(values, Fraction(sum(sums), big), method=method, in_core=in_core)


def core_point(dec: MarketDecomposition) -> Allocation:
    """x_i = sum_j (best market profit) * (i's demand there); always in the core."""
    columns = []
    for best, j in zip(dec.best_profit, dec.markets):
        nums, den = _numerators([row[j] for row in dec.instance.demand])
        columns.append(([best.numerator * v for v in nums], best.denominator * den))
    return _combine(dec, columns, "core point", True)


def sum_of_nucleoli(dec: MarketDecomposition) -> Allocation:
    """Per-market nucleoli summed; in the core, but not the true nucleolus."""
    parts = [_numerators(nucleolus_primal_dual(g).values) for g in dec.games]
    return _combine(dec, parts, "sum of per-market nucleoli", True)


def shapley_multimarket(dec: MarketDecomposition) -> Allocation:
    """Exact Shapley value of the whole game, summed market by market."""
    parts = [_numerators(shapley_single_market(g).values) for g in dec.games]
    return _combine(dec, parts, "shapley (per-market sum)", None)
