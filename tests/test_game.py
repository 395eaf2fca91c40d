import json
import random
from collections import Counter
from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ATOMS,
    HUGE,
    cold_oracle,
    random_capacitated_integral,
    random_coalition,
    random_single_market,
    random_table_oracle,
    random_uncapacitated,
    record_warm_moves,
    reference_core_check,
    reference_excesses,
)
from coopshare import (
    Allocation,
    Coalition,
    DegenerateMarketError,
    InputError,
    Instance,
    NormalizedInstance,
    SingleMarketGame,
    SizeError,
    core_check,
    min_excess,
    normalize,
    single_market,
    solve_lp,
    to_single_market,
    value_general,
    value_single_market,
)
from coopshare.game import _transport_program, coalition_table, excesses


def _instance(price, cost, demand, capacity=None):
    n, m = len(cost), len(price)
    return Instance(
        tuple(f"p{i+1}" for i in range(n)),
        tuple(f"m{j+1}" for j in range(m)),
        tuple(price),
        tuple(tuple(r) for r in cost),
        tuple(tuple(r) for r in demand),
        tuple(capacity if capacity else [None] * n),
    )


THIRD = F(1, 3)
DEMO_GAME = single_market([1, 1, 0], [THIRD, THIRD, THIRD])

MULTI = normalize(
    _instance(
        [1, 1, 1],
        [[0, 0, 0], [0, 1, 1], [1, 1, 0]],
        [[1, 0, 1], [0, 1, 1], [1, 1, 0]],
    )
)


class TestCoalition:
    def test_basic(self):
        s = Coalition.of([3, 1])
        assert s.members() == (1, 3)
        assert len(s) == 2
        assert 1 in s and 2 not in s
        assert s.union(Coalition.of([2])).mask == 0b111
        assert s.minus(Coalition.of([1])).members() == (3,)
        assert str(s) == "{1,3}"

    def test_validation(self):
        with pytest.raises(InputError):
            Coalition.of([0])
        with pytest.raises(InputError):
            Coalition.of(["a"])
        with pytest.raises(InputError):
            Coalition.of([True, 2])
        for mask in (1.5, True, "3", None, -1):
            with pytest.raises(InputError):
                Coalition(mask)


class TestInstanceValidation:
    def test_negative_demand_named(self):
        with pytest.raises(InputError, match=r"demand\[2\]\[1\]"):
            _instance([1], [[0], [0]], [[1], [-1]])

    def test_capacity_below_own_demand(self):
        with pytest.raises(InputError, match=r"capacity\[1\]"):
            _instance([1], [[0]], [[3]], capacity=[2])

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            _instance([1, 2], [[0], [0]], [[1], [1]])

    def test_normalized_instance_checks_capacity_too(self):
        from coopshare import NormalizedInstance

        with pytest.raises(InputError, match=r"capacity\[1\]"):
            NormalizedInstance(
                ("a",), ("m",), ((F(1),),), ((F(3),),), (F(2),)
            )


# ATOMS as Python values: what `json` reads, except that the huge
# integer, which `json` refuses to read, is built directly
HUGE_INT = 10 ** len(HUGE)
PYTHON_ATOMS = [HUGE_INT if text == HUGE else json.loads(text) for text in ATOMS]


@st.composite
def damaged_instance_arguments(draw):
    """Valid raw keyword arguments of `Instance` or `NormalizedInstance`,
    given as lists, with one field, row or entry replaced by an atom, a
    list holding the huge integer, a scalar, a short copy or a copy whose
    first entry repeats."""
    kind = draw(st.sampled_from((Instance, NormalizedInstance)))
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    numbers = st.sampled_from((0, 1, 2, 7, "1/2", "5/3", F(9, 4)))

    def matrix():
        return [[draw(numbers) for _ in range(m)] for _ in range(n)]

    args = {"players": [f"p{i}" for i in range(n)], "markets": [f"m{j}" for j in range(m)]}
    if kind is Instance:
        args.update(price=[draw(numbers) for _ in range(m)], cost=matrix())
    else:
        args.update(profit=matrix())
    args["demand"] = matrix()
    args["capacity"] = [
        draw(st.sampled_from((None, str(sum(map(F, row)))))) for row in args["demand"]
    ]
    parent, key = args, draw(st.sampled_from(sorted(args)))
    while isinstance(parent[key], list) and draw(st.booleans()):
        parent, key = parent[key], draw(st.integers(0, len(parent[key]) - 1))
    old = parent[key]
    damage = [*PYTHON_ATOMS, [HUGE_INT], 5]
    if isinstance(old, list):
        damage += [old[:-1], old[:1] + old[:-1]]
    parent[key] = draw(st.sampled_from(damage))
    return kind, args


def _assert_well_formed(inst):
    n, m = inst.n, inst.m
    assert n and m and len(set(inst.players)) == n and len(set(inst.markets)) == m
    assert all(type(name) is str for name in inst.players + inst.markets)
    if isinstance(inst, Instance):
        assert type(inst.price) is tuple and len(inst.price) == m
        assert all(type(v) is F for v in inst.price)
        matrices, signed = (inst.cost, inst.demand), (inst.demand,)
    else:
        matrices = signed = (inst.profit, inst.demand)
    for matrix in matrices:
        assert type(matrix) is tuple and len(matrix) == n
        assert all(type(r) is tuple and len(r) == m for r in matrix)
        assert all(type(v) is F for r in matrix for v in r)
    assert all(v >= 0 for matrix in signed for r in matrix for v in r)
    assert type(inst.capacity) is tuple and len(inst.capacity) == n
    for cap, row in zip(inst.capacity, inst.demand):
        assert cap is None or (type(cap) is F and cap >= sum(row))
    hash(inst)


class TestInstanceContract:
    """Both instance constructors take outside input: they raise InputError
    or hold checked, hashable tuples, whatever they are given."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(damaged_instance_arguments())
    def test_only_input_errors_escape(self, case):
        kind, args = case
        try:
            inst = kind(**args)
        except InputError:
            return
        _assert_well_formed(inst)

    def test_lists_are_stored_as_tuples(self):
        inst = Instance(["a", "b"], ["m"], [3], [[1], [2]], [[1], ["1/2"]], [None, 2])
        same = Instance(
            ("a", "b"), ("m",), (F(3),), ((F(1),), (F(2),)), ((F(1),), (F(1, 2),)), (None, F(2))
        )
        assert inst == same and hash(inst) == hash(same)
        _assert_well_formed(inst)
        normalized = NormalizedInstance(["a"], ["m"], [[1]], [[2]], [None])
        assert normalized.players == ("a",) and normalized.profit == ((F(1),),)
        _assert_well_formed(normalized)

    @pytest.mark.parametrize("build, text", [
        (lambda: Instance(("a", "a"), ("m",), (1,), ((0,), (0,)), ((1,), (1,)), (None, None)),
         "names in players must be unique"),
        (lambda: NormalizedInstance((1, None), ("m",), ((1,), (1,)), ((1,), (1,)), (None, None)),
         "players[1]: name must be a string"),
        (lambda: Instance(("a",), ("m",), (1,), ((0,),), ((1,),), 5),
         "capacity must be a list of length 1"),
        (lambda: Instance(("a", "b"), ("m",), (1,), ((0,), (0,)), ((1,), 1), (None, None)),
         "demand[2] must be a list of length 1"),
        (lambda: Instance((), ("m",), (1,), (), (), ()),
         "need at least one player and one market"),
        (lambda: Instance(("a",), ("m", "n"), (1, "1.5"), ((0, 0),), ((1, 1),), (None,)),
         "price[2]: malformed rational '1.5': expected 'p' or 'p/q' with q > 0"),
    ], ids=["duplicate", "not-a-string", "scalar-capacity", "scalar-row", "empty", "price"])
    def test_errors_name_the_field(self, build, text):
        with pytest.raises(InputError) as err:
            build()
        assert str(err.value) == text

    def test_huge_numbers_in_error_texts(self):
        # str() of an int past the 4300-digit limit raises ValueError
        with pytest.raises(InputError) as err:
            _instance([1], [[0]], [[HUGE_INT]], capacity=[1])
        assert str(err.value) == (
            "capacity[1] = 1 cannot serve the player's own demand <Fraction too long to print>"
        )
        with pytest.raises(InputError) as err:
            _instance([1], [[0]], [[[HUGE_INT]]])
        assert str(err.value) == "demand[1][1]: not a rational number: <list too long to print>"


class TestNormalize:
    def test_demo_profits(self):
        inst = normalize(_instance([2], [[1], [1], [2]], [[THIRD]] * 3))
        assert inst.profit == ((F(1),), (F(1),), (F(0),))

    def test_zero_profit_boundary(self):
        inst = normalize(_instance([1, 2], [[1, 2], [1, 2]], [[1, 1], [1, 1]]))
        assert all(v == 0 for row in inst.profit for v in row)

    def test_negative_margin_clamped(self):
        inst = normalize(_instance([1], [[3]], [[1]]))
        assert inst.profit == ((F(0),),)


class TestToSingleMarket:
    def test_multi_demo_first_market(self):
        g = to_single_market(MULTI, 0)
        assert g.alpha == (F(1), F(1), F(0))
        assert g.share == (F(1, 2), F(0), F(1, 2))
        assert g.perm == (1, 2, 3)
        assert g.scale == 2

    def test_sorting_with_permutation(self):
        g = to_single_market(MULTI, 2)
        assert g.alpha == (F(1), F(1), F(0))
        assert g.perm == (1, 3, 2)
        assert g.share == (F(1, 2), F(0), F(1, 2))

    def test_single_player(self):
        inst = normalize(_instance([2], [[1]], [[5]]))
        g = to_single_market(inst, 0)
        assert g.share == (F(1),)
        assert g.scale == 5

    def test_tie_broken_by_original_index(self):
        inst = normalize(_instance([3], [[1], [1]], [[1], [3]]))
        g = to_single_market(inst, 0)
        assert g.perm == (1, 2)
        assert g.share == (F(1, 4), F(3, 4))

    def test_degenerate_market(self):
        inst = normalize(_instance([1], [[0], [0]], [[0], [0]]))
        with pytest.raises(DegenerateMarketError):
            to_single_market(inst, 0)

    def test_round_trip_identity(self):
        rng = random.Random(3)
        for _ in range(50):
            inst = random_uncapacitated(rng, rng.randint(1, 5), 1)
            if sum(inst.demand[i][0] for i in range(inst.n)) == 0:
                continue
            g = to_single_market(inst, 0)
            # metadata reconstructs the original demand column and profits
            rebuilt_demand = g.to_original(g.share)
            rebuilt_profit = [None] * g.n
            for k in range(g.n):
                rebuilt_profit[g.perm[k] - 1] = g.alpha[k]
            for i in range(inst.n):
                assert rebuilt_demand[i] == inst.demand[i][0]
                assert rebuilt_profit[i] == inst.profit[i][0]
            canonical = [g.alpha[k] * g.share[k] for k in range(g.n)]
            original = g.to_original(canonical)
            for i in range(inst.n):
                assert original[i] == inst.profit[i][0] * inst.demand[i][0]


def _market_data(rng, n, m):
    """Fractional prices, costs and demands; costs from a small pool, so
    profits tie, and some above the price, so margins go negative; some
    players and markets without demand."""
    price = [F(rng.randint(1, 900), rng.choice([1, 4, 100])) for _ in range(m)]
    pool = [F(rng.randint(0, 950), rng.choice([1, 3, 100])) for _ in range(3)]
    cost = [[rng.choice(pool) for _ in range(m)] for _ in range(n)]
    demand = [
        [F(rng.randint(1, 40), rng.choice([1, 2, 7])) if rng.random() < 0.7 else F(0)
         for _ in range(m)]
        for _ in range(n)
    ]
    return price, cost, demand


class TestIntegerMarketData:
    """`normalize` and `to_single_market` build their data from numerators;
    a Fraction-built reference must give the same game."""

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 3), st.randoms(use_true_random=False))
    def test_matches_fraction_reference(self, n, m, rng):
        price, cost, demand = _market_data(rng, n, m)
        inst = normalize(_instance(price, cost, demand))
        for i in range(n):
            for j in range(m):
                assert inst.profit[i][j] == max(F(0), price[j] - cost[i][j])
        for j in range(m):
            total = sum(demand[i][j] for i in range(n))
            if total == 0:
                with pytest.raises(DegenerateMarketError):
                    to_single_market(inst, j)
                continue
            g = to_single_market(inst, j)
            order = sorted(range(n), key=lambda i: (-inst.profit[i][j], i))
            assert g.alpha == tuple(inst.profit[i][j] for i in order)
            assert g.share == tuple(demand[i][j] / total for i in order)
            assert g.perm == tuple(i + 1 for i in order)
            assert g.scale == total
            form = g.integer_form
            assert tuple(F(a, form.alpha_den) for a in form.alpha) == g.alpha
            assert tuple(F(s, form.share_den) for s in form.share) == g.share

    def test_integer_form_is_not_a_constructor_argument(self):
        # the form is always built from alpha and share, so no caller can
        # hand the checks a form that differs from the game's own fields
        g = single_market([2, 1], [F(1, 2)] * 2)
        other = single_market([3, 1], [F(1, 3), F(2, 3)])
        with pytest.raises(TypeError):
            SingleMarketGame(g.alpha, g.share, g.perm, g.scale, other.integer_form)


class TestChecksKeepTheirText:
    @pytest.mark.parametrize("build, text", [
        (lambda: single_market([1, 2], [F(1, 2)] * 2), "alpha must be nonincreasing"),
        (lambda: single_market([1, -1], [F(1, 2)] * 2), "alpha must be nonnegative"),
        (lambda: single_market([2, 1], [F(3, 2), F(-1, 2)]), "shares must be nonnegative"),
        (lambda: single_market([2, 1], [F(1, 2), F(1, 3)]), "shares must sum to exactly 1"),
        # True == 1 and 1.0 == 1, so only a type test refuses these; and
        # the type test comes first, as a str cannot be sorted with ints
        (lambda: SingleMarketGame((F(2), F(1)), (F(1, 2), F(1, 2)), (True, 2), F(1)),
         "perm must be a permutation of 1..n"),
        (lambda: SingleMarketGame((F(2), F(1)), (F(1, 2), F(1, 2)), (2, 1.0), F(1)),
         "perm must be a permutation of 1..n"),
        (lambda: SingleMarketGame((F(2), F(1)), (F(1, 2), F(1, 2)), (1, "2"), F(1)),
         "perm must be a permutation of 1..n"),
        (lambda: NormalizedInstance(("a",), ("m",), ((F(-1, 3),),), ((F(1),),), (None,)),
         "profit[1][1] is negative: -1/3"),
        (lambda: _instance([1], [[0]], [[F(3, 2)]], capacity=[1]),
         "capacity[1] = 1 cannot serve the player's own demand 3/2"),
        (lambda: NormalizedInstance(("a",), ("m",), ((F(1),),), ((F(3),),), (F(5, 2),)),
         "capacity[1] = 5/2 cannot serve the player's own demand 3"),
        (lambda: Allocation((F(1, 3), F(1, 2)), F(1)), "allocation sums to 5/6, expected 1"),
        (lambda: core_check(single_market([2, 1], [F(1, 2)] * 2), [F(1), F(1, 2)]),
         "allocation does not distribute v(N) exactly"),
        # the length is checked before efficiency, as on the oracle branch
        (lambda: core_check(DEMO_GAME, [F(2)]), "payoff vector has length 1, expected 3"),
    ])
    def test_same_error_and_text(self, build, text):
        with pytest.raises(InputError) as err:
            build()
        assert type(err.value) is InputError
        assert str(err.value) == text


class TestValueSingleMarket:
    def test_demo_values(self):
        assert value_single_market(DEMO_GAME, Coalition.of([1, 3])) == F(2, 3)
        assert value_single_market(DEMO_GAME, Coalition.of([2, 3])) == F(2, 3)
        assert value_single_market(DEMO_GAME, Coalition.full(3)) == 1

    def test_empty_and_singleton(self):
        assert value_single_market(DEMO_GAME, Coalition(0)) == 0
        assert value_single_market(DEMO_GAME, Coalition.of([3])) == 0
        g = single_market([3, 1], [F(1, 4), F(3, 4)])
        assert value_single_market(g, Coalition.of([2])) == F(3, 4)

    def test_monotone_adding_stronger_player(self):
        rng = random.Random(11)
        for _ in range(100):
            g = random_single_market(rng, rng.randint(2, 7))
            s = random_coalition(rng, g.n)
            lowest = (s.mask & -s.mask).bit_length()
            if lowest == 1:
                continue
            k = rng.randint(1, lowest - 1)
            grown = s.union(Coalition.of([k]))
            assert value_single_market(g, grown) >= value_single_market(g, s)


class TestValueGeneral:
    def test_multi_demo_total(self):
        assert value_general(MULTI, Coalition.full(3)) == 6

    def test_singleton_serves_own_demand(self):
        assert value_general(MULTI, Coalition.of([1])) == 2
        assert value_general(MULTI, Coalition.of([2])) == 0

    def test_two_player_closed_form(self):
        inst = normalize(_instance([4], [[1], [3]], [[1], [1]]))
        assert value_general(inst, Coalition.full(2)) == 6

    def test_closed_form_matches_lp(self):
        rng = random.Random(23)
        for _ in range(25):
            inst = random_uncapacitated(rng, rng.randint(1, 4), rng.randint(1, 3))
            s = random_coalition(rng, inst.n)
            members = s.members()
            rhs = [sum(inst.demand[i - 1][j] for i in members) for j in range(inst.m)]
            _, lp = _transport_program(inst, members, [], rhs)
            assert value_general(inst, s) == solve_lp(lp).value

    def test_plan_is_feasible_and_worth_the_value(self):
        value, plan = value_general(MULTI, Coalition.full(3), want_plan=True)
        assert value == 6
        total = sum(
            MULTI.profit[i][j] * plan[i][j]
            for i in range(3)
            for j in range(3)
        )
        assert total == value
        for j in range(3):
            assert sum(plan[i][j] for i in range(3)) == sum(
                MULTI.demand[i][j] for i in range(3)
            )

    def test_capacitated_uses_lp(self):
        # one strong producer capped at its own demand: the cap binds
        inst = normalize(
            _instance([5], [[1], [4]], [[2], [2]], capacity=[2, None])
        )
        value = value_general(inst, Coalition.full(2))
        assert value == 2 * 4 + 2 * 1

    def test_empty_coalition_rejected(self):
        with pytest.raises(InputError):
            value_general(MULTI, Coalition(0))


def _capacitated(rng, n, m, den=1, mixed=False, zero_market=False, zero_profit=False):
    """A seeded instance; demands and extra capacity have denominators up
    to `den`, and `mixed` leaves some players uncapped."""
    price = [rng.randint(1, 9) for _ in range(m)]
    cost = [[rng.randint(0, 9) for _ in range(m)] for _ in range(n)]
    demand = [[F(rng.randint(0, 6), rng.randint(1, den)) for _ in range(m)] for _ in range(n)]
    if zero_market:
        empty = rng.randrange(m)
        for row in demand:
            row[empty] = F(0)
    if zero_profit:
        for row in cost:
            row[rng.randrange(m)] = 10  # above every price: the cell earns 0
    capacity = [sum(row) + F(rng.randint(0, 5), rng.randint(1, den)) for row in demand]
    if mixed:  # at least one player keeps a cap
        keep = rng.randrange(n)
        capacity = [q if i == keep or rng.random() < 0.6 else None
                    for i, q in enumerate(capacity)]
    return normalize(_instance(price, cost, demand, capacity))


def _zero_demand(rng, n, m):
    """No demand anywhere, so every value is 0; some players keep a cap of
    0..3 and the rest none."""
    capacity = [rng.choice([None, 0, F(rng.randint(1, 3), rng.randint(1, 2))])
                for _ in range(n)]
    return normalize(_instance([rng.randint(1, 9) for _ in range(m)],
                               [[rng.randint(0, 9) for _ in range(m)] for _ in range(n)],
                               [[0] * m for _ in range(n)], capacity))


def _tied_capacities(rng, n, m):
    """A seeded instance whose capacities tie: each capped player takes one
    of two levels, the lower one the largest own demand; the rest are
    uncapped, and at least one player keeps a cap."""
    demand = [[F(rng.randint(0, 6), rng.randint(1, 2)) for _ in range(m)] for _ in range(n)]
    low = max(map(sum, demand))
    levels = (low, low + F(rng.randint(1, 5), 2))
    keep = rng.randrange(n)
    capacity = [rng.choice(levels) if i == keep or rng.random() < 0.6 else None
                for i in range(n)]
    return normalize(_instance([rng.randint(1, 9) for _ in range(m)],
                               [[rng.randint(0, 9) for _ in range(m)] for _ in range(n)],
                               demand, capacity))


def _assert_table_matches(inst):
    """The instance's table, coalition by coalition, against a cold solve."""
    table, den = coalition_table(inst, inst.n, 8, "test table")
    for mask in range(1, 1 << inst.n):
        assert F(table[mask], den) == value_general(inst, Coalition(mask)), (inst, mask)


class TestValueOracle:
    """An instance's characteristic function as the 2^n routes read it:
    `coalition_table`'s warm walk, one re-solve per coalition."""

    CASES = {
        "integral": lambda rng, n, m: random_capacitated_integral(rng, n, m),
        "fractional": lambda rng, n, m: _capacitated(rng, n, m, den=3),
        "mixed-caps": lambda rng, n, m: _capacitated(rng, n, m, den=2, mixed=True),
        "zero-demand-market": lambda rng, n, m: _capacitated(rng, n, m, zero_market=True),
        "zero-profit-cells": lambda rng, n, m: _capacitated(rng, n, m, den=2, zero_profit=True),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_value_general(self, case):
        rng = random.Random(f"oracle:{case}")
        for n in range(2, 9):
            for _ in range(3 if n < 7 else 1):
                _assert_table_matches(self.CASES[case](rng, n, rng.randint(1, 3)))

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 5),
        st.integers(1, 3),
        st.integers(1, 3),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    def test_property_matches_value_general(self, n, m, den, mixed, rng):
        _assert_table_matches(_capacitated(rng, n, m, den=den, mixed=mixed))

    def test_out_of_range_coalitions_rejected(self):
        inst = random_capacitated_integral(random.Random(3), 3, 2)
        for mask in (0, 1 << 3):
            with pytest.raises(InputError):
                value_general(inst, Coalition(mask))
        for n in (2, 4):
            with pytest.raises(InputError, match="^the instance has 3 players, not"):
                coalition_table(inst, n, 8, "test table")


class TestMinExcess:
    def test_uniform_point(self):
        s, excess = min_excess(DEMO_GAME, [THIRD, THIRD, THIRD])
        assert excess == 0
        assert s.members() == (1,)

    def test_two_player_at_nucleolus(self):
        g = single_market([3, 1], [F(1, 2), F(1, 2)])
        s, excess = min_excess(g, [F(2), F(1)])
        assert excess == F(1, 2)
        assert s.members() == (1,)

    def test_single_player(self):
        g = single_market([4], [F(1)])
        s, excess = min_excess(g, [F(4)])
        assert s.members() == (1,)
        assert excess == 0

    def test_matches_enumeration(self):
        rng = random.Random(17)
        for _ in range(120):
            n = rng.randint(2, 9)
            g = random_single_market(rng, n)
            x = [F(rng.randint(-4, 8), rng.randint(1, 3)) for _ in range(n)]
            _, fast = min_excess(g, x)
            best = min(
                sum(x[k] for k in range(n) if mask >> k & 1)
                - value_single_market(g, Coalition(mask))
                for mask in range(1, (1 << n) - 1)
            )
            assert fast == best

    def test_matches_enumeration_at_limit(self):
        rng = random.Random(18)
        g = random_single_market(rng, 12)
        x = [F(rng.randint(0, 6), 3) for _ in range(12)]
        _, fast = min_excess(g, x)
        best = min(
            sum(x[k] for k in range(12) if mask >> k & 1)
            - value_single_market(g, Coalition(mask))
            for mask in range(1, (1 << 12) - 1)
        )
        assert fast == best


class TestCoreCheck:
    def test_multi_demo_core_point(self):
        assert core_check(MULTI, [F(2)] * 3, 3).in_core

    def test_multi_demo_violation(self):
        result = core_check(MULTI, [F(6), F(0), F(0)], 3)
        assert not result.in_core
        assert result.violated.members() == (2, 3)
        assert result.excess == -2

    def test_single_player(self):
        assert core_check(lambda s: F(7), [F(7)], 1).in_core
        with pytest.raises(InputError):  # efficiency is checked at n = 1 too
            core_check(lambda s: F(7), [F(5)], 1)

    def test_accepts_allocation_objects(self):
        alloc = Allocation((F(2), F(2), F(2)), F(6))
        assert core_check(MULTI, alloc, 3).in_core

    def test_single_market_fast_path(self):
        assert core_check(DEMO_GAME, [THIRD, THIRD, THIRD]).in_core
        result = core_check(DEMO_GAME, [F(1), F(0), F(0)])
        assert not result.in_core
        assert result.excess < 0

    def test_inefficient_allocation_rejected(self):
        with pytest.raises(InputError):
            core_check(DEMO_GAME, [F(1), F(1), F(1)])

    def test_enumeration_guard(self):
        with pytest.raises(SizeError):
            core_check(lambda s: F(0), [F(0)] * 21, 21)

    # past the enumeration guard too: the length is checked before the table
    @pytest.mark.parametrize("x, n", [([1, 1, 1, 0], 3), ([F(3)], 3), ([], 0), ([0] * 20, 21)])
    def test_oracle_payoff_vector_must_fit_the_players(self, x, n):
        with pytest.raises(InputError):
            core_check(lambda s: F(len(s)), x, n)

    def test_matches_fraction_enumeration(self):
        rng = random.Random(2718)
        verdicts = set()
        for trial in range(120):
            n = rng.randint(1, 7)
            if trial % 3 == 0:
                source = random_capacitated_integral(rng, n, rng.randint(1, 3))
                v = cold_oracle(source)
            else:
                source = v = random_table_oracle(rng, n)
            full = (1 << n) - 1
            x = [F(rng.randint(-3, 9), rng.randint(1, 4)) for _ in range(n)]
            x[-1] += v(Coalition(full)) - sum(x)
            expected = reference_core_check(v, x, n)
            assert core_check(source, x, n) == expected
            verdicts.add(expected.in_core)
        assert verdicts == {True, False}

    def test_planted_ties_resolve_to_the_smallest_mask(self):
        rng = random.Random(3141)
        for _ in range(60):
            n = rng.randint(2, 7)
            full = (1 << n) - 1
            x = [F(rng.randint(0, 9), rng.randint(1, 3)) for _ in range(n)]

            def x_of(mask):
                return sum((x[k] for k in range(n) if mask >> k & 1), F(0))

            worst = F(-rng.randint(1, 5), rng.randint(1, 3))
            vals = {m: x_of(m) - F(rng.randint(0, 4), 7) for m in range(1, full)}
            tied = rng.sample(range(1, full), min(3, full - 1))
            for m in tied:
                vals[m] = x_of(m) - worst
            vals[full] = x_of(full)
            v = lambda s, vals=vals: vals[s.mask]
            result = core_check(v, x, n)
            assert result == reference_core_check(v, x, n)
            assert result.violated == Coalition(min(tied))
            assert result.excess == worst


class TestCoalitionTable:
    @staticmethod
    def _assert_table(source, n, value=None):
        """The table of `source` against `value`, by default the source
        itself, coalition by coalition."""
        value = value or source
        table, den = coalition_table(source, n, 8, "test table")
        assert len(table) == 1 << n and table[0] == 0
        assert all(isinstance(t, int) for t in table)
        assert isinstance(den, int) and den >= 1
        for mask in range(1, 1 << n):
            assert F(table[mask], den) == value(Coalition(mask)), mask
        # the least common denominator: no factor of den divides every entry
        assert gcd(den, *table) == 1

    def test_matches_value_general_and_the_single_market_values(self):
        rng = random.Random(1969)
        for n in range(1, 9):
            m = rng.randint(1, 3)
            capped = random_capacitated_integral(rng, n, m)
            fractional = normalize(_instance(
                [rng.randint(1, 9) for _ in range(m)],
                [[rng.randint(0, 9) for _ in range(m)] for _ in range(n)],
                [[F(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(m)] for _ in range(n)],
            ))
            for inst in (capped, random_uncapacitated(rng, n, m), fractional):
                self._assert_table(cold_oracle(inst), n)
                self._assert_table(inst, n, cold_oracle(inst))
            g = random_single_market(rng, n)
            self._assert_table(lambda s, g=g: value_single_market(g, s), n)

    INSTANCES = {
        "all-capped": lambda rng, n, m: _capacitated(rng, n, m, den=3),
        "mixed-caps": lambda rng, n, m: _capacitated(rng, n, m, den=2, mixed=True),
        "uncapacitated": lambda rng, n, m: random_uncapacitated(rng, n, m),
        "zero-demand": lambda rng, n, m: _zero_demand(rng, n, m),
    }

    @pytest.mark.parametrize("case", sorted(INSTANCES))
    def test_instance_table_equals_the_oracle_table(self, case):
        """The integer walk over an instance gives the very pair, table and
        denominator, that cold solves of the same instance give."""
        rng = random.Random(f"table:{case}")
        for n in range(1, 11):
            for _ in range(3 if n < 8 else 1):
                inst = self.INSTANCES[case](rng, n, rng.randint(1, 3))
                expected = coalition_table(cold_oracle(inst), n, 10, "test table")
                assert coalition_table(inst, n, 10, "test table") == expected, inst

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 3), st.integers(1, 3),
           st.sampled_from(["capped", "mixed", "none"]), st.randoms(use_true_random=False))
    def test_property_instance_table_equals_the_oracle_table(self, n, m, den, caps, rng):
        inst = _capacitated(rng, n, m, den=den, mixed=caps == "mixed")
        if caps == "none":
            inst = NormalizedInstance(inst.players, inst.markets, inst.profit, inst.demand,
                                      (None,) * n)
        table = coalition_table(inst, n, 6, "test table")
        assert table == coalition_table(cold_oracle(inst), n, 6, "test table")
        assert all(type(t) is int for t in table[0]) and type(table[1]) is int

    def test_capped_walk_toggles_the_least_capacity_most(self, monkeypatch):
        """The capacitated walk makes one warm move per nonempty mask, each
        move one player's right-hand sides (checked by the spy), and ranks
        players by capacity: the k-th in ascending capacity, counted from 0
        (an uncapped player counting as the total demand D(N), ties to the
        lower index), is toggled 2^(n-1-k) times.  The table still equals
        `value_general` coalition by coalition."""
        reads = record_warm_moves(monkeypatch)
        rng = random.Random(2904)
        tied = uncapped_last = 0
        for n in range(1, 9):
            for _ in range(4):
                inst = _tied_capacities(rng, n, rng.randint(1, 3))
                reads.clear()
                table, den = coalition_table(inst, n, 8, "test table")
                assert sorted(reads) == list(range(1, 1 << n))
                steps = Counter(a ^ b for a, b in zip([0] + reads, reads))
                total = sum(map(sum, inst.demand))
                caps = [total if q is None else q for q in inst.capacity]
                order = sorted(range(n), key=lambda i: (caps[i], i))
                assert [steps[1 << i] for i in order] == [1 << (n - 1 - k) for k in range(n)]
                for mask in range(1, 1 << n):
                    assert F(table[mask], den) == value_general(inst, Coalition(mask)), mask
                tied += len(set(caps)) < n
                uncapped = [i for i in order if inst.capacity[i] is None]
                if uncapped and all(q < total for q in inst.capacity if q is not None):
                    assert order[-len(uncapped):] == uncapped
                    uncapped_last += 1
        assert tied > 15 and uncapped_last > 5

    def test_uncapacitated_recurrence_at_fourteen_players(self):
        inst = random_uncapacitated(random.Random(14), 14, 3)
        table, den = coalition_table(inst, 14, 14, "test table")
        assert gcd(den, *table) == 1 and table[0] == 0
        for mask in random.Random(15).sample(range(1, 1 << 14), 200) + [(1 << 14) - 1]:
            assert F(table[mask], den) == value_general(inst, Coalition(mask)), mask

    def test_instance_and_table_sources_are_checked(self):
        inst = random_capacitated_integral(random.Random(4), 3, 2)
        with pytest.raises(InputError):
            coalition_table(inst, 2, 8, "test table")
        with pytest.raises(SizeError, match="^test table is limited to 2 players, got 3$"):
            coalition_table(inst, 3, 2, "test table")
        table = coalition_table(inst, 3, 8, "test table")
        assert coalition_table(table, 3, 8, "test table") is table
        with pytest.raises(InputError):
            coalition_table(table, 4, 8, "test table")
        x = [F(table[0][-1], table[1]), 0, 0]
        expected = core_check(cold_oracle(inst), x, 3)
        assert core_check(table, x, 3) == core_check(inst, x, 3) == expected

    def test_guard(self):
        with pytest.raises(InputError):
            coalition_table(lambda s: F(1), 0, 8, "test table")
        with pytest.raises(SizeError, match="^test table is limited to 8 players, got 9$"):
            coalition_table(lambda s: F(1), 9, 8, "test table")

    def test_each_route_keeps_its_limit_and_message(self):
        from coopshare import nucleolus_bruteforce, shapley_bruteforce

        routes = [
            (lambda n: core_check(lambda s: F(0), [F(0)] * n, n), 20, "core enumeration"),
            (lambda n: shapley_bruteforce(lambda s: F(0), n), 10, "brute-force Shapley"),
            (lambda n: nucleolus_bruteforce(lambda s: F(0), n), 12, "brute-force nucleolus"),
        ]
        for route, limit, what in routes:
            with pytest.raises(SizeError) as err:
                route(limit + 1)
            assert str(err.value) == f"{what} is limited to {limit} players, got {limit + 1}"
            with pytest.raises(InputError):
                route(0)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.fractions(min_value=-20, max_value=20, max_denominator=12), min_size=1, max_size=7
    ), st.integers(min_value=1, max_value=12), st.data())
    def test_subset_sums_match_fraction_sums(self, x, den, data):
        """`excesses` builds x(S) by doubling in integers; x(S) - v(S)
        equals the Fraction sum minus the table's value."""
        size = 1 << len(x)
        table = [0] + data.draw(st.lists(
            st.integers(min_value=-50, max_value=50), min_size=size - 1, max_size=size - 1
        ))
        big = lcm(den, *(v.denominator for v in x))
        excess = excesses(table, big // den, [v.numerator * (big // v.denominator) for v in x])
        assert len(excess) == size
        for mask in range(size):
            members = Coalition(mask).members()
            x_s = sum((x[p - 1] for p in members), F(0))
            assert F(excess[mask], big) == x_s - F(table[mask], den)

    def test_doubling_matches_the_low_bit_recurrence(self):
        """On random tables with n = 0..12, with and without a trailing
        epsilon entry in xs, which is ignored."""
        rng = random.Random(2906)
        for n in range(13):
            table = [0] + [rng.randint(-10**6, 10**6) for _ in range((1 << n) - 1)]
            xs = [rng.randint(-10**9, 10**9) for _ in range(n)]
            up = rng.randint(1, 50)
            expected = reference_excesses(table, up, xs)
            assert excesses(table, up, xs) == expected
            assert excesses(table, up, [*xs, rng.randint(-10**9, 10**9)]) == expected


class TestGameProperties:
    def test_value_additivity_across_markets(self):
        rng = random.Random(31)
        for _ in range(20):
            n, m = rng.randint(1, 6), rng.randint(1, 6)
            inst = random_uncapacitated(rng, n, m)
            games = []
            for j in range(m):
                if sum(inst.demand[i][j] for i in range(n)) == 0:
                    continue
                games.append(to_single_market(inst, j))
            for mask in range(1, 1 << n):
                s = Coalition(mask)
                total = sum(
                    (
                        value_single_market(g, g.map_coalition(s)) * g.scale
                        for g in games
                    ),
                    F(0),
                )
                assert total == value_general(inst, s)

    def test_positive_homogeneity(self):
        rng = random.Random(37)
        for _ in range(40):
            n = rng.randint(1, 6)
            inst = random_uncapacitated(rng, n, 1)
            scale = F(rng.randint(1, 9), rng.randint(1, 4))
            scaled = type(inst)(
                inst.players,
                inst.markets,
                inst.profit,
                tuple(tuple(d * scale for d in row) for row in inst.demand),
                inst.capacity,
            )
            s = random_coalition(rng, n)
            assert value_general(scaled, s) == scale * value_general(inst, s)

    def test_superadditive_but_not_convex(self):
        rng = random.Random(41)
        for _ in range(100):
            n = rng.randint(2, 8)
            g = random_single_market(rng, n)
            a = random_coalition(rng, n)
            b = Coalition(random_coalition(rng, n).mask & ~a.mask)
            if not b:
                continue
            union = value_single_market(g, a.union(b))
            assert union >= value_single_market(g, a) + value_single_market(g, b)
        # convexity fails: the demo game reproduces the exact violation
        s, t = Coalition.of([1, 3]), Coalition.of([2, 3])
        lhs = value_single_market(DEMO_GAME, s) + value_single_market(DEMO_GAME, t)
        rhs = value_single_market(DEMO_GAME, Coalition.of([3])) + value_single_market(
            DEMO_GAME, Coalition.full(3)
        )
        assert lhs == F(4, 3)
        assert rhs == 1
        assert lhs > rhs
