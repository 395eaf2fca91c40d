"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Every comparison is exact Fraction equality; the only tolerances are the
stated wall-clock budgets.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from conftest import (
    MULTI_MARKET_FIXTURE,
    SINGLE_MARKET_FIXTURE,
    RowSpace,
    random_capacitated_integral,
    random_single_market,
    random_uncapacitated,
)
from coopshare import (
    Coalition,
    core_check,
    core_point,
    decompose,
    normalize,
    nucleolus_bruteforce,
    nucleolus_primal_dual,
    nucleolus_separation,
    parse_instance,
    separate,
    shapley_bruteforce,
    shapley_multimarket,
    shapley_single_market,
    single_market,
    sum_of_nucleoli,
    to_single_market,
    value_general,
    value_single_market,
)
from coopshare.cli import main as cli_main
from coopshare.nucleolus import improving_direction

THIRD = F(1, 3)


@contextmanager
def criterion(number: int, text: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL  {text}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number:2d} PASS  {text}  [{elapsed:.3f}s]")


# one corpus serves criteria 3 and 5
TRIANGLE_PLAN = {2: 100, 3: 100, 4: 80, 5: 60, 6: 50, 7: 40, 8: 30, 9: 22, 10: 18}


@pytest.fixture(scope="module")
def triangle_corpus():
    rng = random.Random(20240613)
    games, runs = [], []
    start = time.perf_counter()
    for n, count in TRIANGLE_PLAN.items():
        for _ in range(count):
            g = random_single_market(rng, n)
            trace = []
            fast = nucleolus_primal_dual(g, trace=trace)
            cut = nucleolus_separation(g)
            slow = nucleolus_bruteforce(
                lambda s: value_single_market(g, s), n
            )
            assert core_check(g, fast.values).in_core
            games.append(g)
            runs.append((fast, cut, slow, trace))
    elapsed = time.perf_counter() - start
    return games, runs, elapsed


def test_criterion_1_single_market_reproduction():
    with criterion(1, "single-market demo values and non-convexity witness"):
        g = single_market([1, 1, 0], [THIRD, THIRD, THIRD])
        start = time.perf_counter()
        v13 = value_single_market(g, Coalition.of([1, 3]))
        v23 = value_single_market(g, Coalition.of([2, 3]))
        v3 = value_single_market(g, Coalition.of([3]))
        vn = value_single_market(g, Coalition.full(3))
        elapsed = time.perf_counter() - start
        assert v13 == F(2, 3)
        assert v23 == F(2, 3)
        assert vn == 1
        assert v13 + v23 == F(4, 3)
        assert v13 + v23 > v3 + vn
        assert elapsed < 0.001, f"took {elapsed * 1000:.3f}ms"


def test_criterion_2_multi_market_reproduction():
    with criterion(2, "multi-market demo: true nucleolus vs per-market sum"):
        start = time.perf_counter()
        inst = normalize(parse_instance(str(MULTI_MARKET_FIXTURE)))
        truth = nucleolus_bruteforce(inst, 3)
        sum_of = sum_of_nucleoli(decompose(inst))
        elapsed = time.perf_counter() - start
        assert truth.values == (F(10, 3), F(4, 3), F(4, 3))
        assert sum_of.values == (F(3), F(3, 2), F(3, 2))
        assert truth.total == sum_of.total == 6
        assert sum(truth.values) == sum(sum_of.values) == 6
        assert core_check(inst, sum_of.values, 3).in_core
        assert truth.values != sum_of.values
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_3_oracle_triangle(triangle_corpus):
    games, runs, elapsed = triangle_corpus
    with criterion(
        3, f"oracle triangle on {len(games)} random games (corpus ran {elapsed:.1f}s)"
    ):
        assert len(games) >= 500
        assert sorted({g.n for g in games}) == list(range(2, 11))
        for fast, cut, slow, _ in runs:
            assert fast.values == cut.values == slow.values
        assert elapsed < 120, f"corpus took {elapsed:.1f}s"


def test_criterion_4_shapley_formula_validation():
    with criterion(4, "closed-form Shapley equals the subset oracle on 500 games"):
        start = time.perf_counter()
        rng = random.Random(97)
        for k in range(500):
            n = rng.randint(1, 9)
            g = random_single_market(rng, n)
            fast = shapley_single_market(g)
            slow = shapley_bruteforce(lambda s: value_single_market(g, s), n)
            assert fast.values == slow.values
            assert sum(fast.values) == fast.total == g.alpha[0]
        elapsed = time.perf_counter() - start
        assert elapsed < 120, f"took {elapsed:.1f}s"


def test_criterion_5_scheme_invariants(triangle_corpus):
    games, runs, _ = triangle_corpus
    with criterion(5, "fixing-scheme invariants hold across the corpus"):
        for g, (fast, _, _, trace) in zip(games, runs):
            n = g.n
            # the in-run drop-one tightness check raised nothing; the trace
            # must show monotone levels and strictly growing fixed sets
            assert 1 <= len(trace) <= n - 1
            level = F(0)
            fixed_before = Coalition(0)
            for entry in trace:
                assert entry.step >= 0
                assert entry.epsilon >= level
                level = entry.epsilon
                assert fixed_before.mask & ~entry.family.mask == 0
                assert len(entry.family) > len(fixed_before)
                fixed_before = entry.family
                assert 1 not in entry.fixed
            assert len(fixed_before) == n - 1
            # directions vanish on every coalition of the fixed family
            members = Coalition(0)
            for entry in trace:
                fixed = g.map_coalition(members)
                direction = improving_direction(fixed, n)
                assert sum(direction) == 0
                for p in fixed.members():
                    assert direction[p - 1] == 0
                members = entry.family


def test_criterion_6_separation_against_enumeration():
    with criterion(6, "separation oracle agrees with enumeration on 200 triples"):
        rng = random.Random(4096)
        found = certified = 0
        for _ in range(200):
            n = rng.randint(2, 10)
            g = random_single_market(rng, n)
            total = g.alpha[0]
            x = [F(rng.randint(-2, 6), rng.randint(1, 3)) for _ in range(n - 1)]
            x.append(total - sum(x))
            fixed = [(Coalition.full(n), total)]
            span = RowSpace()
            span.add([1] * n)
            for _ in range(rng.randint(0, n - 1)):
                mask = rng.randrange(1, (1 << n) - 1)
                vec = [mask >> k & 1 for k in range(n)]
                if not span.contains(vec):
                    span.add(vec)
                    fixed.append(
                        (Coalition(mask), sum(x[k] for k in range(n) if mask >> k & 1))
                    )
            eps = F(rng.randint(-6, 3), rng.randint(1, 2))
            got = separate(g, x, eps, fixed)
            exists = False
            for mask in range(1, 1 << n):
                vec = [mask >> k & 1 for k in range(n)]
                if span.contains(vec):
                    continue
                xs = sum(x[k] for k in range(n) if mask >> k & 1)
                if xs - value_single_market(g, Coalition(mask)) < eps:
                    exists = True
                    break
            assert (got is not None) == exists
            if got is None:
                certified += 1
            else:
                found += 1
                vec = [got.mask >> k & 1 for k in range(n)]
                assert not span.contains(vec)
                xs = sum(x[k] for k in range(n) if got.mask >> k & 1)
                assert xs < value_single_market(g, got) + eps
        assert found >= 20 and certified >= 20


def test_criterion_7_multi_market_properties():
    with criterion(7, "additivity, per-market Shapley, and core solutions"):
        rng = random.Random(321)
        for _ in range(20):
            n, m = rng.randint(2, 8), rng.randint(1, 5)
            inst = random_uncapacitated(rng, n, m)
            dec = decompose(inst)
            for mask in range(1, 1 << n):
                s = Coalition(mask)
                split = sum(
                    (
                        g.scale * value_single_market(g, g.map_coalition(s))
                        for g in dec.games
                    ),
                    F(0),
                )
                assert split == value_general(inst, s)
            values = {}

            def oracle(s, inst=inst, values=values):
                if s.mask not in values:
                    values[s.mask] = value_general(inst, s)
                return values[s.mask]

            fast = shapley_multimarket(dec)
            assert fast.values == shapley_bruteforce(oracle, n).values
            assert core_check(oracle, sum_of_nucleoli(dec).values, n).in_core
            assert core_check(oracle, core_point(dec).values, n).in_core


def test_criterion_8_integral_production_plans():
    with criterion(8, "integer data yields integral basic optimal plans"):
        rng = random.Random(555)
        instances = 0
        checked = 0
        for _ in range(100):
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            instances += 1
            inst = random_capacitated_integral(rng, n, m)
            masks = {(1 << n) - 1}
            while len(masks) < min(3, (1 << n) - 1):
                masks.add(rng.randrange(1, 1 << n))
            for mask in masks:
                value, plan = value_general(
                    inst, Coalition(mask), want_plan=True
                )
                assert all(v.denominator == 1 for row in plan for v in row)
                shipped = sum(
                    (
                        inst.profit[i][j] * plan[i][j]
                        for i in range(n)
                        for j in range(m)
                    ),
                    F(0),
                )
                assert shipped == value
                checked += 1
        assert instances >= 100
        assert checked >= instances


def test_criterion_9_scaling_law():
    with criterion(9, "demand scaling scales every solution vector exactly"):
        rng = random.Random(888)
        for _ in range(100):
            n = rng.randint(1, 7)
            inst = random_uncapacitated(rng, n, 1)
            if sum(inst.demand[i][0] for i in range(n)) == 0:
                continue
            s = F(rng.randint(1, 12), rng.randint(1, 5))
            scaled = type(inst)(
                inst.players,
                inst.markets,
                inst.profit,
                tuple(tuple(d * s for d in row) for row in inst.demand),
                inst.capacity,
            )
            g, gs = to_single_market(inst, 0), to_single_market(scaled, 0)
            base = nucleolus_primal_dual(g)
            assert nucleolus_primal_dual(gs).values == tuple(
                v * s for v in base.values
            )
            base = shapley_single_market(g)
            assert shapley_single_market(gs).values == tuple(
                v * s for v in base.values
            )
            base = core_point(decompose(inst))
            assert core_point(decompose(scaled)).values == tuple(
                v * s for v in base.values
            )


def test_criterion_10_collaboration_gain_demo(capsys):
    with criterion(10, "CLI demo: collaboration gain on the shipped fixtures"):
        expected = {
            str(SINGLE_MARKET_FIXTURE): (F(1), F(2, 3), F(1, 3)),
            str(MULTI_MARKET_FIXTURE): (F(6), F(2), F(4)),
        }
        lines = []
        for path, (grand, solo_total, gain) in expected.items():
            inst = parse_instance(path)
            code = cli_main(["value", path, "--coalition", "all", "--json-style"])
            out = capsys.readouterr().out
            assert code == 0
            total = F(json.loads(out)["value"]["exact"])
            solos = F(0)
            for name in inst.players:
                code = cli_main(
                    ["value", path, "--coalition", name, "--json-style"]
                )
                out = capsys.readouterr().out
                assert code == 0
                solos += F(json.loads(out)["value"]["exact"])
            assert total == grand
            assert solos == solo_total
            assert total - solos == gain
            lines.append(
                f"    {path.rsplit('/', 1)[-1]}: v(N) = {total}, "
                f"sum of solo values = {solos}, collaboration gain = {total - solos}"
            )
        for line in lines:
            print(line)
