"""The benchmark's three workloads: inputs, the timed request, the check.

Each workload draws a fixed input set from its own seeded generator.
`prepare` turns the set into what coopshare takes (and writes files
where the request reads them); it is part of set-up.  `run` is one
request, the only code inside the timed region.  `check` raises
`CheckError` when an output is wrong; it compares against `reference`,
never against saved output.

Money is drawn in cents and demand in whole tonnes, so the reference
works in integers and coopshare sees prices such as 7342/100.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from fractions import Fraction

import reference


class CheckError(Exception):
    """An output of coopshare disagrees with the benchmark's own computation."""


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _cents(value: int) -> Fraction:
    return Fraction(value, 100)


def _draw_market(rng, n: int, m: int, most: int = 500):
    """Prices, unit costs (cents) and demands (tonnes); every margin is positive."""
    price = [rng.randint(6000, 9999) for _ in range(m)]
    cost = [[rng.randint(1000, 5499) for _ in range(m)] for _ in range(n)]
    demand = [[rng.randint(1, most) for _ in range(m)] for _ in range(n)]
    return price, cost, demand


def _instance(cs, raw):
    n, m = len(raw["cost"]), len(raw["price"])
    return cs.Instance(
        tuple(f"p{i + 1}" for i in range(n)),
        tuple(f"m{j + 1}" for j in range(m)),
        tuple(_cents(p) for p in raw["price"]),
        tuple(tuple(_cents(c) for c in row) for row in raw["cost"]),
        tuple(tuple(Fraction(d) for d in row) for row in raw["demand"]),
        tuple([None] * n),
    )


def _margins(raw):
    return [
        [max(0, p - c) for p, c in zip(raw["price"], row)] for row in raw["cost"]
    ]


def _column(rows, j):
    return [row[j] for row in rows]


class MarketScale:
    """Uncapacitated multi-market games through the polynomial routes."""

    name = "market-scale"
    players, markets, items = 20, 3, 32

    def draw(self, rng):
        n, m = self.players, self.markets
        price, cost, demand = _draw_market(rng, n, m)
        twin, other, null = rng.sample(range(n), 3)
        cost[other] = list(cost[twin])
        demand[other] = list(demand[twin])
        demand[null] = [0] * m
        for j in range(m):  # strictly the weakest margin in every market
            cost[null][j] = max(cost[i][j] for i in range(n) if i != null) + rng.randint(1, 400)
        return {"price": price, "cost": cost, "demand": demand,
                "twins": (twin, other), "null": null}

    def prepare(self, cs, raws, workdir):
        return [(raw, _instance(cs, raw)) for raw in raws]

    def run(self, cs, item):
        _raw, instance = item
        dec = cs.decompose(cs.normalize(instance))
        nucleoli = cs.sum_of_nucleoli(dec)
        shapley = cs.shapley_multimarket(dec)
        core = cs.core_point(dec)
        per_market = []
        for g in dec.games:
            part = cs.shapley_single_market(g)
            canonical = [part.values[p - 1] / g.scale for p in g.perm]
            per_market.append((part.values, cs.core_check(g, canonical)))
        return nucleoli, shapley, core, per_market, dec

    def check(self, cs, item, out):
        raw, _instance_ = item
        nucleoli, shapley, core, per_market, dec = out
        n = self.players
        margin = _margins(raw)
        expect(list(dec.markets) == list(range(self.markets)), "a market was dropped")
        total = Fraction(0)
        core_expected = [Fraction(0)] * n
        nucleolus_parts = []
        for j, game in enumerate(dec.games):
            prof, dem = _column(margin, j), _column(raw["demand"], j)
            value = reference.market_value(prof, dem, range(n))
            total += _cents(value)
            for i in range(n):
                core_expected[i] += _cents(max(prof) * dem[i])

            shapley_part, verdict = per_market[j]
            own = [_cents(v) for v in reference.market_shapley(prof, dem)]
            expect(list(shapley_part) == own, f"market {j}: Shapley value differs")
            excess, _members = reference.market_min_excess(prof, dem, [v * 100 for v in own])
            expect(verdict.in_core == (excess >= 0),
                   f"market {j}: core verdict {verdict.in_core} but min excess {excess}")
            if not verdict.in_core:
                expect(verdict.excess * game.scale * 100 == excess,
                       f"market {j}: reported excess {verdict.excess * game.scale}")

            # sum_of_nucleoli returns only the sum; recompute its parts to scan each
            part = cs.nucleolus_primal_dual(game).values
            expect(sum(part) == _cents(value), f"market {j}: nucleolus not efficient")
            excess, members = reference.market_min_excess(prof, dem, [v * 100 for v in part])
            expect(excess >= 0, f"market {j}: nucleolus outside the core at {members}")
            nucleolus_parts.append(part)

        for alloc, label in ((nucleoli, "sum of nucleoli"), (shapley, "Shapley"),
                             (core, "core point")):
            expect(alloc.total == total and sum(alloc.values) == total,
                   f"{label} does not distribute v(N) = {total}")
            a, b = raw["twins"]
            expect(alloc.values[a] == alloc.values[b], f"{label}: twins paid differently")
            expect(alloc.values[raw["null"]] == 0, f"{label}: null player paid")
        expect(list(core.values) == core_expected, "core point differs")
        expect(list(shapley.values) == [sum(p) for p in zip(*(s for s, _v in per_market))],
               "Shapley value differs from its per-market parts")
        expect(list(nucleoli.values) == [sum(p) for p in zip(*nucleolus_parts)],
               "sum of nucleoli differs from its parts")


class SequentialLp:
    """Single-market games through all three nucleolus routes."""

    name = "sequential-lp"
    players, items = 7, 48

    def draw(self, rng):
        price, cost, demand = _draw_market(rng, self.players, 1)
        return {"price": price, "cost": cost, "demand": demand}

    def prepare(self, cs, raws, workdir):
        return [(raw, _instance(cs, raw)) for raw in raws]

    def run(self, cs, item):
        _raw, instance = item
        game = cs.to_single_market(cs.normalize(instance), 0)
        fast = cs.nucleolus_primal_dual(game)
        cuts = cs.nucleolus_separation(game)
        brute = cs.nucleolus_bruteforce(lambda s: cs.value_single_market(game, s), game.n)
        return fast.values, cuts.values, game.to_original(brute.values)

    def check(self, cs, item, out):
        raw, _instance_ = item
        fast, cuts, brute = out
        expect(fast == cuts, "separation route differs from primal-dual")
        expect(fast == brute, "sequential-LP route differs from primal-dual")
        prof, dem = _column(_margins(raw), 0), _column(raw["demand"], 0)
        value = reference.market_value(prof, dem, range(self.players))
        expect(sum(fast) == _cents(value), "nucleolus not efficient")
        excess, members = reference.market_min_excess(prof, dem, [v * 100 for v in fast])
        expect(excess >= 0, f"nucleolus outside the core at {members}")


def _cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class CapacitatedCli:
    """Capacitated instances through the command line, in process."""

    name = "capacitated-cli"
    players, markets, items = 7, 2, 48

    def draw(self, rng):
        n, m = self.players, self.markets
        price, cost, demand = _draw_market(rng, n, m, most=60)
        capacity = [sum(row) + rng.randint(0, 80) for row in demand]
        return {"price": price, "cost": cost, "demand": demand, "capacity": capacity}

    def prepare(self, cs, raws, workdir):
        items = []
        for k, raw in enumerate(raws):
            doc = {
                "players": [f"p{i + 1}" for i in range(self.players)],
                "markets": [{"name": f"m{j + 1}", "price": f"{p}/100"}
                            for j, p in enumerate(raw["price"])],
                "cost": [[f"{c}/100" for c in row] for row in raw["cost"]],
                "demand": raw["demand"],
                "capacity": raw["capacity"],
            }
            path = os.path.join(workdir, f"instance-{k}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            items.append((raw, path, os.path.join(workdir, f"nucleolus-{k}.json")))
        return items

    def run(self, cs, item):
        cli = cs.cli
        _raw, path, allocation_path = item
        nucleolus = _cli(cli, ["allocate", path, "--method", "nucleolus", "--oracle",
                               "--json-style"])
        if nucleolus[0] != 0:
            raise RuntimeError(f"allocate --method nucleolus exited {nucleolus[0]}")
        report = json.loads(nucleolus[1])
        with open(allocation_path, "w", encoding="utf-8") as fh:
            json.dump({"allocation": {e["player"]: e["exact"] for e in report["allocation"]}}, fh)
        shapley = _cli(cli, ["allocate", path, "--method", "shapley", "--oracle",
                             "--json-style"])
        check = _cli(cli, ["check", path, allocation_path, "--json-style"])
        value = _cli(cli, ["value", path, "--coalition", "all", "--plan", "--json-style"])
        return nucleolus, shapley, check, value

    def check(self, cs, item, out):
        raw, _path, _allocation = item
        n, m = self.players, self.markets
        for code, _stdout, stderr in out:
            expect(code == 0, f"command exited {code}: {stderr.strip()}")
        nucleolus, shapley, check, value = (json.loads(stdout) for _c, stdout, _e in out)
        margin = _margins(raw)

        def value_of(members):
            return reference.transport_value(margin, raw["demand"], raw["capacity"], members)[0]

        values = reference.all_values(value_of, n)
        grand = values[-1]

        def payoffs(report):
            expect([e["player"] for e in report["allocation"]] ==
                   [f"p{i + 1}" for i in range(n)], "report lists other players")
            return [Fraction(e["exact"]) * 100 for e in report["allocation"]]

        x = payoffs(nucleolus)
        expect(sum(x) == grand and Fraction(nucleolus["total"]["exact"]) * 100 == grand,
               "nucleolus does not distribute v(N)")
        excess, mask = reference.min_excess_by_scan(values, x, n)
        expect(excess >= 0, f"nucleolus outside the core at mask {mask}")
        expect(nucleolus["core"] is True, f"nucleolus report says core {nucleolus['core']}")
        expect(check["in_core"] is True, f"check says in_core {check['in_core']}")

        phi = payoffs(shapley)
        expect(phi == reference.subset_shapley(values, n), "Shapley value differs")
        excess, mask = reference.min_excess_by_scan(values, phi, n)
        expect(shapley["core"] is (excess >= 0),
               f"Shapley report says core {shapley['core']}, min excess {excess}")

        expect(Fraction(value["value"]["exact"]) * 100 == grand, "value of N differs")
        shipped = [[Fraction(0)] * m for _ in range(n)]
        for entry in value["plan"]:
            i = int(entry["player"][1:]) - 1
            for market, amount in entry["shipments"].items():
                shipped[i][int(market[1:]) - 1] = Fraction(amount["exact"])
        for j in range(m):
            expect(sum(row[j] for row in shipped) == sum(row[j] for row in raw["demand"]),
                   f"plan misses demand in market {j}")
        for i in range(n):
            expect(all(q >= 0 for q in shipped[i]) and sum(shipped[i]) <= raw["capacity"][i],
                   f"plan overloads player {i}")
        expect(sum(margin[i][j] * shipped[i][j] for i in range(n) for j in range(m)) == grand,
               "plan does not earn v(N)")


WORKLOADS = {w.name: w for w in (MarketScale(), SequentialLp(), CapacitatedCli())}
