import random
from fractions import Fraction as F

import pytest

from conftest import random_uncapacitated
from coopshare import (
    Coalition,
    Instance,
    UnsupportedModeError,
    core_check,
    core_point,
    decompose,
    normalize,
    nucleolus_bruteforce,
    nucleolus_primal_dual,
    shapley_bruteforce,
    shapley_multimarket,
    shapley_single_market,
    sum_of_nucleoli,
    to_single_market,
    value_general,
    value_single_market,
)

MULTI = normalize(
    Instance(
        ("a", "b", "c"),
        ("m1", "m2", "m3"),
        (F(1), F(1), F(1)),
        ((F(0), F(0), F(0)), (F(0), F(1), F(1)), (F(1), F(1), F(0))),
        ((F(1), F(0), F(1)), (F(0), F(1), F(1)), (F(1), F(1), F(0))),
        (None, None, None),
    )
)


class TestDecompose:
    def test_multi_demo(self):
        dec = decompose(MULTI)
        assert dec.markets == (0, 1, 2)
        assert all(g.scale == 2 for g in dec.games)
        assert dec.best_profit == (F(1), F(1), F(1))

    def test_single_market_identity(self):
        inst = normalize(
            Instance(("a", "b"), ("m",), (F(3),),
                     ((F(1),), (F(2),)), ((F(2),), (F(1),)), (None, None))
        )
        dec = decompose(inst)
        assert len(dec.games) == 1
        assert dec.games[0] == to_single_market(inst, 0)

    def test_zero_demand_market_dropped(self):
        inst = normalize(
            Instance(("a",), ("m1", "m2"), (F(2), F(5)),
                     ((F(1), F(1)),), ((F(3), F(0)),), (None,))
        )
        dec = decompose(inst)
        assert dec.markets == (0,)

    def test_capacitated_unsupported(self):
        inst = normalize(
            Instance(("a",), ("m",), (F(2),), ((F(1),),), ((F(3),),), (F(3),))
        )
        with pytest.raises(UnsupportedModeError, match="oracle"):
            decompose(inst)


class TestCorePoint:
    def test_multi_demo(self):
        alloc = core_point(decompose(MULTI))
        assert alloc.values == (F(2), F(2), F(2))
        assert alloc.total == 6
        assert core_check(MULTI, alloc.values, 3).in_core

    def test_dominant_player_takes_everything(self):
        inst = normalize(
            Instance(("a", "b"), ("m1", "m2"), (F(4), F(2)),
                     ((F(1), F(1)), (F(2), F(2))),
                     ((F(1), F(2)), (F(0), F(0))), (None, None))
        )
        alloc = core_point(decompose(inst))
        assert alloc.values == (F(5), F(0))
        assert alloc.total == value_general(inst, Coalition.full(2))

    def test_zero_profit(self):
        inst = normalize(
            Instance(("a", "b"), ("m",), (F(1),),
                     ((F(1),), (F(1),)), ((F(1),), (F(1),)), (None, None))
        )
        alloc = core_point(decompose(inst))
        assert alloc.values == (F(0), F(0))


class TestSumOfNucleoli:
    def test_multi_demo(self):
        alloc = sum_of_nucleoli(decompose(MULTI))
        assert alloc.values == (F(3), F(3, 2), F(3, 2))
        assert alloc.total == 6
        assert core_check(MULTI, alloc.values, 3).in_core

    def test_differs_from_true_nucleolus(self):
        direct = nucleolus_bruteforce(MULTI, 3)
        assert direct.values == (F(10, 3), F(4, 3), F(4, 3))
        assert sum_of_nucleoli(decompose(MULTI)).values != direct.values
        assert direct.total == 6

    def test_single_market_equals_nucleolus(self):
        inst = normalize(
            Instance(("a", "b", "c"), ("m",), (F(2),),
                     ((F(1),), (F(1),), (F(2),)),
                     ((F(1, 3),), (F(1, 3),), (F(1, 3),)), (None, None, None))
        )
        fast = nucleolus_primal_dual(to_single_market(inst, 0))
        assert sum_of_nucleoli(decompose(inst)).values == fast.values


class TestShapleyMultimarket:
    def test_multi_demo_matches_oracle(self):
        alloc = shapley_multimarket(decompose(MULTI))
        direct = shapley_bruteforce(MULTI, 3)
        assert alloc.values == direct.values == (F(10, 3), F(4, 3), F(4, 3))

    def test_uniform_instance(self):
        a = F(3)
        inst = normalize(
            Instance(("a", "b"), ("m1", "m2"), (a, a),
                     ((F(0), F(0)), (F(0), F(0))),
                     ((F(1), F(2)), (F(3), F(1))), (None, None))
        )
        alloc = shapley_multimarket(decompose(inst))
        assert alloc.values == (a * 3, a * 4)


class TestEdgeInstances:
    """The three combining routes on an instance without any demand and on
    one with a single market."""

    def test_every_market_without_demand(self):
        inst = normalize(
            Instance(("a", "b"), ("m1", "m2"), (F(2), F(5, 2)),
                     ((F(1), F(1, 3)), (F(0), F(3))), ((F(0), F(0)), (F(0), F(0))),
                     (None, None))
        )
        dec = decompose(inst)
        assert dec.markets == () and dec.games == () and dec.best_profit == ()
        for route in (sum_of_nucleoli, shapley_multimarket, core_point):
            alloc = route(dec)
            assert alloc.values == (F(0), F(0))
            assert alloc.total == 0

    def test_single_market(self):
        inst = normalize(
            Instance(("a", "b", "c"), ("m",), (F(7, 2),),
                     ((F(1, 3),), (F(2),), (F(1, 3),)),
                     ((F(3, 4),), (F(0),), (F(5, 2),)), (None, None, None))
        )
        dec = decompose(inst)
        g = to_single_market(inst, 0)
        assert dec.games == (g,)
        assert sum_of_nucleoli(dec).values == nucleolus_primal_dual(g).values
        assert shapley_multimarket(dec).values == shapley_single_market(g).values
        best = max(row[0] for row in inst.profit)
        point = core_point(dec)
        assert point.values == tuple(best * row[0] for row in inst.demand)
        assert point.total == best * sum(row[0] for row in inst.demand)
        for route in (sum_of_nucleoli, shapley_multimarket, core_point):
            assert route(dec).total == g.alpha[0] * g.scale


class TestRandomizedProperties:
    def test_additivity_and_solution_quality(self):
        rng = random.Random(61)
        for _ in range(12):
            n, m = rng.randint(2, 6), rng.randint(1, 4)
            inst = random_uncapacitated(rng, n, m)
            dec = decompose(inst)
            for mask in range(1, 1 << n):
                s = Coalition(mask)
                total = sum(
                    (
                        g.scale * value_single_market(g, g.map_coalition(s))
                        for g in dec.games
                    ),
                    F(0),
                )
                assert total == value_general(inst, s)
            assert core_check(inst, core_point(dec).values, n).in_core
            assert core_check(inst, sum_of_nucleoli(dec).values, n).in_core
            fast = shapley_multimarket(dec)
            assert fast.values == shapley_bruteforce(inst, n).values

    def test_core_solutions_at_larger_sizes(self):
        rng = random.Random(62)
        cache = {}
        for n in (9, 10):
            for _ in range(3):
                inst = random_uncapacitated(rng, n, rng.randint(2, 5))
                cache.clear()

                def oracle(s, inst=inst, cache=cache):
                    if s.mask not in cache:
                        cache[s.mask] = value_general(inst, s)
                    return cache[s.mask]

                dec = decompose(inst)
                assert core_check(oracle, core_point(dec).values, n).in_core
                assert core_check(oracle, sum_of_nucleoli(dec).values, n).in_core
