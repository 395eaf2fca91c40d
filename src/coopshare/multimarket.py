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

from .errors import UnsupportedModeError
from .game import Allocation, NormalizedInstance, SingleMarketGame, to_single_market
from .nucleolus import nucleolus_primal_dual
from .shapley import shapley_single_market

_ZERO = Fraction(0)


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
    markets, games, best = [], [], []
    for j in range(inst.m):
        if sum(inst.demand[i][j] for i in range(inst.n)) == 0:
            continue
        markets.append(j)
        games.append(to_single_market(inst, j))
        best.append(max(inst.profit[i][j] for i in range(inst.n)))
    return MarketDecomposition(inst, tuple(markets), tuple(games), tuple(best))


def _combine(dec: MarketDecomposition, parts, method: str, in_core) -> Allocation:
    n = dec.instance.n
    values = [_ZERO] * n
    total = _ZERO
    for alloc in parts:
        for i in range(n):
            values[i] += alloc.values[i]
        total += alloc.total
    return Allocation(tuple(values), total, method=method, in_core=in_core)


def core_point(dec: MarketDecomposition) -> Allocation:
    """x_i = sum_j (best market profit) * (i's demand there); always in the core."""
    inst = dec.instance
    values = [
        sum((dec.best_profit[k] * inst.demand[i][j] for k, j in enumerate(dec.markets)), _ZERO)
        for i in range(inst.n)
    ]
    return Allocation(tuple(values), sum(values, _ZERO), method="core point", in_core=True)


def sum_of_nucleoli(dec: MarketDecomposition) -> Allocation:
    """Per-market nucleoli summed; in the core, but not the true nucleolus."""
    parts = [nucleolus_primal_dual(g) for g in dec.games]
    return _combine(dec, parts, "sum of per-market nucleoli", True)


def shapley_multimarket(dec: MarketDecomposition) -> Allocation:
    """Exact Shapley value of the whole game, summed market by market."""
    parts = [shapley_single_market(g) for g in dec.games]
    return _combine(dec, parts, "shapley (per-market sum)", None)
