import random
from fractions import Fraction as F
from math import comb

import pytest

from conftest import (
    cold_oracle,
    random_capacitated_integral,
    random_single_market,
    random_table_oracle,
    random_uncapacitated,
    reference_shapley_bruteforce,
    shapley_weights,
)
from coopshare import (
    Coalition,
    InputError,
    SizeError,
    core_check,
    marginal_contribution,
    shapley_bruteforce,
    shapley_single_market,
    single_market,
    value_single_market,
)

THIRD = F(1, 3)
DEMO_GAME = single_market([1, 1, 0], [THIRD, THIRD, THIRD])


def oracle_of(g):
    return lambda s: value_single_market(g, s)


class TestWeights:
    def test_values(self):
        w = shapley_weights(3)
        assert w.beta == (THIRD, F(1, 6), THIRD)

    def test_each_player_sees_total_weight_one(self):
        for n in range(1, 31):
            w = shapley_weights(n)
            total = sum(
                (comb(n - 1, l) * w.of_size(l + 1) for l in range(n)), F(0)
            )
            assert total == 1


class TestMarginalContribution:
    def test_singleton(self):
        g = single_market([3, 2], [F(1, 4), F(3, 4)])
        assert marginal_contribution(g, Coalition.of([2]), 2) == F(3, 2)

    def test_joining_a_stronger_player(self):
        g = single_market([3, 2], [F(1, 4), F(3, 4)])
        # {1, i}: i only contributes its share at player 1's margin
        assert marginal_contribution(g, Coalition.of([1, 2]), 2) == F(3, 4) * 3

    def test_joining_a_weaker_player(self):
        g = single_market([3, 2, 1], [F(1, 3), F(1, 3), F(1, 3)])
        # {i, n}: i upgrades n's margin and adds its own share
        expected = THIRD * (3 - 1) + THIRD * 3
        assert marginal_contribution(g, Coalition.of([1, 3]), 1) == expected

    def test_requires_membership(self):
        with pytest.raises(InputError):
            marginal_contribution(DEMO_GAME, Coalition.of([1]), 2)

    def test_matches_value_difference(self):
        rng = random.Random(8)
        for _ in range(200):
            n = rng.randint(1, 8)
            g = random_single_market(rng, n)
            mask = rng.randrange(1, 1 << n)
            coalition = Coalition(mask)
            members = coalition.members()
            i = rng.choice(members)
            direct = value_single_market(g, coalition) - value_single_market(
                g, coalition.minus(Coalition.of([i]))
            )
            assert marginal_contribution(g, coalition, i) == direct


class TestClosedForm:
    def test_demo_game(self):
        alloc = shapley_single_market(DEMO_GAME)
        assert alloc.values == (F(7, 18), F(7, 18), F(2, 9))

    def test_matches_oracle_two_player(self):
        g = single_market([3, 1], [F(1, 2), F(1, 2)])
        assert shapley_single_market(g).values == (F(2), F(1))
        assert shapley_bruteforce(oracle_of(g), 2).values == (F(2), F(1))

    def test_uniform_profit_pays_proportionally(self):
        a = F(5, 2)
        g = single_market([a] * 4, [F(1, 10), F(2, 10), F(3, 10), F(4, 10)])
        alloc = shapley_single_market(g)
        assert alloc.values == tuple(a * s for s in g.share)

    def test_matches_oracle_randomized(self):
        rng = random.Random(15)
        for _ in range(120):
            n = rng.randint(1, 8)
            g = random_single_market(rng, n)
            fast = shapley_single_market(g)
            slow = shapley_bruteforce(oracle_of(g), n)
            assert fast.values == slow.values
            assert sum(fast.values) == fast.total == g.alpha[0]

    def test_symmetry_for_identical_players(self):
        rng = random.Random(21)
        for _ in range(60):
            n = rng.randint(2, 7)
            g = random_single_market(rng, n)
            alloc = shapley_single_market(g)
            for i in range(n - 1):
                if g.alpha[i] == g.alpha[i + 1] and g.share[i] == g.share[i + 1]:
                    assert alloc.values[i] == alloc.values[i + 1]

    def test_null_player_gets_nothing(self):
        # no demand share and a profit tied with the weakest: joins any
        # coalition without changing its value
        g = single_market([2, 1, 1], [F(1, 2), F(1, 2), F(0)])
        for mask in range(1, 4):
            with_p3 = Coalition(mask | 4)
            assert value_single_market(g, with_p3) == value_single_market(
                g, Coalition(mask)
            )
        assert shapley_single_market(g).values[2] == 0

    def test_denormalization(self):
        g = single_market([3, 1], [F(1, 2), F(1, 2)], scale=F(10))
        alloc = shapley_single_market(g)
        assert alloc.values == (F(20), F(10))
        assert alloc.total == 30


class TestBruteForce:
    def test_single_player(self):
        assert shapley_bruteforce(lambda s: F(9), 1).values == (F(9),)

    def test_additive_game(self):
        w = [F(2), F(5), F(1)]
        alloc = shapley_bruteforce(
            lambda s: sum((w[p - 1] for p in s.members()), F(0)), 3
        )
        assert alloc.values == tuple(w)

    def test_size_guard(self):
        with pytest.raises(SizeError):
            shapley_bruteforce(lambda s: F(0), 11)

    def test_core_verdict_matches_enumeration(self):
        # the route reads every proper excess off its own table
        rng = random.Random(1969)
        makers = {
            "capacitated": lambda n: random_capacitated_integral(rng, n, 2),
            "uncapacitated": lambda n: random_uncapacitated(rng, n, 2),
            "table": lambda n: random_table_oracle(rng, n),
        }
        verdicts = {kind: set() for kind in makers}
        for trial in range(120):
            kind = list(makers)[trial % 3]
            n = rng.randint(1, 7)
            v = makers[kind](n)
            got = shapley_bruteforce(v, n)
            assert got.in_core == core_check(v, got.values, n).in_core
            verdicts[kind].add(got.in_core)
        assert all(seen == {True, False} for seen in verdicts.values()), verdicts

    def test_matches_fraction_enumeration(self):
        rng = random.Random(1953)
        for trial in range(60):
            n = rng.randint(1, 7)
            if trial % 3 == 0:
                source = random_capacitated_integral(rng, n, rng.randint(1, 3))
                v = cold_oracle(source)
            elif trial % 3 == 1:
                source = v = oracle_of(random_single_market(rng, n))
            else:
                source = v = random_table_oracle(rng, n)
            got, expected = shapley_bruteforce(source, n), reference_shapley_bruteforce(v, n)
            assert (got.values, got.total, got.method) == (
                expected.values, expected.total, expected.method)


def reference_shapley(g):
    """The Shapley value as four blocks (stronger players' margins, the lone
    term, own margin over weaker minima, and the upgrade block), each summed
    pivot by pivot in Fractions from the binomial ordering sums, O(n^2) per
    game: an independent derivation that the closed form must match."""
    n = g.n
    beta = shapley_weights(n).of_size
    alpha, lam = g.alpha, g.share
    zero = F(0)
    over = [zero] * (n + 2)
    under = [zero] * (n + 2)
    third = [zero] * (n + 2)
    for h in range(1, n + 1):
        under[h] = sum((comb(n - h - 1, l) * beta(l + 2) for l in range(n - h)), zero)
        if h >= 2:
            over[h] = sum((comb(n - h, l) * beta(l + 2) for l in range(n - h + 1)), zero)
            third[h] = sum((comb(n - h - 1, l) * beta(l + 3) for l in range(n - h)), zero)
    tail = [zero] * (n + 2)
    for h in range(n - 1, 0, -1):
        tail[h] = tail[h + 1] + lam[h]
    values = []
    for i in range(1, n + 1):
        stronger = lam[i - 1] * sum((alpha[h - 1] * under[h] for h in range(1, i)), zero)
        lone = alpha[i - 1] * lam[i - 1] / n
        own = alpha[i - 1] * lam[i - 1] * sum((over[h] for h in range(i + 1, n + 1)), zero)
        upgrade = sum(
            (
                (alpha[i - 1] - alpha[h - 1]) * (lam[h - 1] * over[h] + tail[h] * third[h])
                for h in range(i + 1, n + 1)
            ),
            zero,
        )
        values.append(stronger + lone + own + upgrade)
    return g.to_original(values)


class TestPrefixSums:
    def test_matches_reference_beyond_the_oracle(self):
        # the subset oracle stops at n = 10; the pivot-by-pivot sums do not
        rng = random.Random(404)
        for _ in range(60):
            n = rng.randint(1, 40)
            g = random_single_market(rng, n)
            g = single_market(g.alpha, g.share, scale=F(rng.randint(1, 9), rng.randint(1, 4)))
            assert shapley_single_market(g).values == reference_shapley(g)
        # distinct profits and integer weights, so no increment d_h is zero
        for n in (41, 60, 80, 100):
            alpha = sorted(rng.sample(range(1, 10**6 + 1), n), reverse=True)
            weights = [rng.randint(1, 1000) for _ in range(n)]
            total = sum(weights)
            g = single_market(alpha, [F(w, total) for w in weights], scale=F(total))
            assert shapley_single_market(g).values == reference_shapley(g)

    def test_profit_increments_sum_to_the_value(self):
        # v(S) = sum_h d_h * lam(S) * [S meets {1..h}], d_h = alpha_h - alpha_{h+1}
        rng = random.Random(1973)
        for _ in range(60):
            n = rng.randint(1, 8)
            g = random_single_market(rng, n)
            d = [a - b for a, b in zip(g.alpha, g.alpha[1:] + (F(0),))]
            for mask in range(1 << n):
                lam = sum((s for k, s in enumerate(g.share) if mask >> k & 1), F(0))
                split = sum((d[h] * lam for h in range(n) if mask & ((2 << h) - 1)), F(0))
                assert split == value_single_market(g, Coalition(mask))

    def test_matches_reference_in_original_order(self):
        from coopshare import Instance, normalize, to_single_market

        rng = random.Random(405)
        for _ in range(20):
            n = rng.randint(2, 25)
            inst = normalize(Instance(
                tuple(f"p{i}" for i in range(n)), ("m",), (F(100),),
                tuple((F(rng.randint(1000, 9999), 100),) for _ in range(n)),
                tuple((F(rng.randint(1, 500)),) for _ in range(n)),
                (None,) * n,
            ))
            g = to_single_market(inst, 0)
            assert shapley_single_market(g).values == reference_shapley(g)
