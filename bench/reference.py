"""Independent computations the benchmark checks coopshare's outputs against.

Nothing here imports coopshare.  Market data arrive as plain integers:
unit profits in cents, demands and capacities in whole tonnes, so every
coalition value is an integer number of cent-tonnes.  Payoffs are
`Fraction`s in the same unit; callers divide by 100 where they compare
against coopshare's per-unit reports.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial


def market_value(profit, demand, members) -> int:
    """Uncapacitated single-market value: best member margin times pooled demand."""
    return max(profit[i] for i in members) * sum(demand[i] for i in members)


def _by_margin(profit) -> list[int]:
    return sorted(range(len(profit)), key=lambda i: (-profit[i], i))


def market_min_excess(profit, demand, x):
    """min over proper nonempty S of x(S) - v(S) for one uncapacitated market.

    O(n^2): fix the coalition's best member b (first in margin order);
    v(S) is then profit[b] * demand(S), so the cheapest S adds every later
    player whose payoff undercuts profit[b] times its demand.  When that S
    is the grand coalition, the proper optimum drops its least negative
    addition.  Returns (excess, members).
    """
    order = _by_margin(profit)
    n = len(order)
    if n == 1:
        return x[0] - profit[0] * demand[0], (0,)
    best = None
    for pos, b in enumerate(order):
        rate = profit[b]
        members = [b]
        total = x[b] - rate * demand[b]
        weights = []
        for i in order[pos + 1:]:
            w = x[i] - rate * demand[i]
            if w < 0:
                members.append(i)
                total += w
                weights.append((w, i))
        if len(members) == n:
            w, i = max(weights)
            members.remove(i)
            total -= w
        if best is None or total < best[0]:
            best = (total, tuple(sorted(members)))
    return best


def market_shapley(profit, demand) -> list[Fraction]:
    """Shapley value of one uncapacitated market, from a unanimity-style split.

    With players in margin order and c_t = profit_(t) - profit_(t+1), the
    game is v(S) = sum_t c_t * sum_{k in S} demand_k * [S meets the first t].
    For the term of a player k outside the first t, k earns t/(t+1) and
    each of the first t earns 1/(t(t+1)); inside, k alone earns it.  This
    derivation shares nothing with coopshare's block formula.
    """
    order = _by_margin(profit)
    n = len(order)
    pos = {i: p for p, i in enumerate(order)}
    sorted_profit = [profit[i] for i in order] + [0]
    cut = [sorted_profit[t] - sorted_profit[t + 1] for t in range(n)]
    rest = [0] * n  # demand of players after the first t + 1
    for t in range(n - 2, -1, -1):
        rest[t] = rest[t + 1] + demand[order[t + 1]]
    prefix_own = [Fraction(0)] * (n + 1)  # sum_{t < p} c_t * (t+1)/(t+2)
    for t in range(n):
        prefix_own[t + 1] = prefix_own[t] + Fraction(cut[t] * (t + 1), t + 2)
    suffix_share = [Fraction(0)] * (n + 1)  # sum_{t >= p} c_t * rest_t / ((t+1)(t+2))
    for t in range(n - 1, -1, -1):
        suffix_share[t] = suffix_share[t + 1] + Fraction(
            cut[t] * rest[t], (t + 1) * (t + 2)
        )
    values = []
    for i in range(n):
        p = pos[i]
        values.append(
            demand[i] * profit[i] + demand[i] * prefix_own[p] + suffix_share[p]
        )
    return values


def transport_value(profit, demand, capacity, members) -> tuple[int, list]:
    """Best joint profit of a capacitated coalition, by successive shortest paths.

    profit[i][j] (cents per tonne), demand[i][j] and capacity[i] are
    integers.  The coalition must ship its pooled demand in every market
    from its members' capacity.  Returns (value, plan) with plan[i][j]
    the tonnes member i ships to market j (players outside are zero).
    """
    m = len(demand[0])
    k = len(members)
    source, sink = 0, k + m + 1
    graph = [[] for _ in range(k + m + 2)]

    def edge(a, b, cap, cost):
        graph[a].append([b, cap, cost, len(graph[b])])
        graph[b].append([a, 0, -cost, len(graph[a]) - 1])

    pooled = [sum(demand[i][j] for i in members) for j in range(m)]
    need = sum(pooled)
    for slot, i in enumerate(members):
        edge(source, 1 + slot, capacity[i], 0)
        for j in range(m):
            edge(1 + slot, 1 + k + j, need, -profit[i][j])
    for j in range(m):
        edge(1 + k + j, sink, pooled[j], 0)

    flow = cost = 0
    while flow < need:
        dist = [None] * len(graph)
        via = [None] * len(graph)
        dist[source] = 0
        for _ in range(len(graph) - 1):  # Bellman-Ford: residual costs can be negative
            changed = False
            for a, edges in enumerate(graph):
                if dist[a] is None:
                    continue
                for idx, (b, cap, c, _rev) in enumerate(edges):
                    if cap > 0 and (dist[b] is None or dist[a] + c < dist[b]):
                        dist[b] = dist[a] + c
                        via[b] = (a, idx)
                        changed = True
            if not changed:
                break
        if dist[sink] is None:
            raise ValueError("coalition cannot ship its pooled demand")
        push, node = need - flow, sink
        while node != source:
            a, idx = via[node]
            push = min(push, graph[a][idx][1])
            node = a
        node = sink
        while node != source:
            a, idx = via[node]
            graph[a][idx][1] -= push
            b, _cap, _c, rev = graph[a][idx]
            graph[b][rev][1] += push
            node = a
        flow += push
        cost += push * dist[sink]

    n = len(demand)
    plan = [[0] * m for _ in range(n)]
    for slot, i in enumerate(members):
        for b, cap, c, rev in graph[1 + slot]:
            if 1 + k <= b < 1 + k + m:
                plan[i][b - 1 - k] = graph[b][rev][1]  # reverse residual = flow
    return -cost, plan


def all_values(value_of, n: int) -> list:
    """v[mask] for every coalition mask (bit i = player i); v[0] = 0."""
    values = [0] * (1 << n)
    for mask in range(1, 1 << n):
        values[mask] = value_of([i for i in range(n) if mask >> i & 1])
    return values


def subset_shapley(values, n: int) -> list[Fraction]:
    """Average marginal contribution over all coalitions, from a value table."""
    weight = [Fraction(factorial(s) * factorial(n - s - 1), factorial(n)) for s in range(n)]
    out = []
    for i in range(n):
        bit = 1 << i
        total = Fraction(0)
        for mask in range(1 << n):
            if not mask & bit:
                total += weight[mask.bit_count()] * (values[mask | bit] - values[mask])
        out.append(total)
    return out


def min_excess_by_scan(values, x, n: int):
    """min over proper nonempty S of x(S) - v(S), by enumerating every S."""
    best = None
    for mask in range(1, (1 << n) - 1):
        excess = sum(x[i] for i in range(n) if mask >> i & 1) - values[mask]
        if best is None or excess < best[0]:
            best = (excess, mask)
    return best
