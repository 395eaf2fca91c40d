import random
import sys
from fractions import Fraction as F
from itertools import compress
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    RowSpace,
    assert_optimal_certificate,
    cold_oracle,
    lazy_result,
    level_program,
    random_capacitated_integral,
    random_single_market,
    random_table_oracle,
    random_uncapacitated,
    reference_bruteforce_cut,
    reference_separate,
    solve_linear_system,
    solve_on_dual,
)
from coopshare import (
    Coalition,
    min_excess,
    InputError,
    InternalError,
    Instance,
    SizeError,
    core_check,
    normalize,
    nucleolus_bruteforce,
    nucleolus_primal_dual,
    nucleolus_separation,
    separate,
    single_market,
    solve_lp,
    step_size,
    value_general,
    value_single_market,
)
from coopshare import nucleolus as nucleolus_module
from coopshare.game import coalition_table
from coopshare.nucleolus import _check_drop_one, _fixed_sums, _MaskSpan, improving_direction
from coopshare.ratlp import (
    EQ,
    FREE,
    GE,
    MAX,
    LazyRows,
    LinearProgram,
)

THIRD = F(1, 3)
DEMO_GAME = single_market([1, 1, 0], [THIRD, THIRD, THIRD])


def oracle_of(g):
    return lambda s: value_single_market(g, s)


class TestFixedFamily:
    """The fixed set F that `step_size` takes: players 2..n only."""

    def test_player_one_excluded(self):
        with pytest.raises(InternalError, match="player 1"):
            step_size(DEMO_GAME, [THIRD] * 3, F(0), Coalition.of([1]))

    def test_past_the_player_count_rejected(self):
        with pytest.raises(InputError, match="exceeds the player count"):
            step_size(DEMO_GAME, [THIRD] * 3, F(0), Coalition.of([2, 4]))


class TestImprovingDirection:
    def test_shape(self):
        d = improving_direction(Coalition.of([3]), 4)
        assert d == (F(2), F(-1), F(0), F(-1))
        assert sum(d) == 0

    def test_orthogonal_to_family_generators(self):
        fixed = Coalition.of([2, 3])
        d = improving_direction(fixed, 5)
        # zero on every subset of F and on every complement-superset
        for p in fixed.members():
            assert d[p - 1] == 0
        assert sum(d) == 0


class TestStepSize:
    def test_two_player_first_move(self):
        g = single_market([3, 1], [F(1, 2), F(1, 2)])
        lam, blocking = step_size(g, [F(3, 2), F(3, 2)], F(0), Coalition(0))
        assert lam == F(1, 2)
        assert blocking.members() == (2,)

    def test_zero_step_reports_tight_coalition(self):
        # player 2's singleton is already tight at the start
        g = single_market([1, 1], [F(1, 3), F(2, 3)])
        lam, blocking = step_size(g, [F(1, 3), F(2, 3)], F(0), Coalition(0))
        assert lam == 0
        assert blocking.members() == (2,)

    def test_complete_family_rejected(self):
        g = single_market([3, 1], [F(1, 2), F(1, 2)])
        with pytest.raises(InternalError):
            step_size(g, [F(2), F(1)], F(1, 2), Coalition.of([2]))

    def test_wrong_length_rejected(self):
        with pytest.raises(InputError, match="length 2, expected 3"):
            step_size(DEMO_GAME, [F(1, 2), F(1, 2)], F(0), Coalition(0))

    def test_point_and_level_read_exactly(self):
        g = single_market([3, 1], [F(1, 2), F(1, 2)])
        exact = step_size(g, [F(3, 2), F(3, 2)], F(0), Coalition(0))
        assert step_size(g, ["3/2", "3/2"], "0", Coalition(0)) == exact
        assert step_size(g, [F(3, 2), F(3, 2)], 0, Coalition(0)) == exact
        for x, eps in (([1.5, F(3, 2)], F(0)), ([F(3, 2)] * 2, 0.0), ([F(3, 2)] * 2, "1/0")):
            with pytest.raises(InputError):
                step_size(g, x, eps, Coalition(0))


class TestPrimalDual:
    def test_two_player(self):
        g = single_market([3, 1], [F(1, 2), F(1, 2)])
        assert nucleolus_primal_dual(g).values == (F(2), F(1))

    def test_uniform_profits_give_proportional_split(self):
        g = single_market([1, 1], [F(1, 3), F(2, 3)])
        assert nucleolus_primal_dual(g).values == (F(1, 3), F(2, 3))
        g5 = single_market([F(7, 2)] * 5, [F(1, 5)] * 5)
        assert nucleolus_primal_dual(g5).values == (F(7, 10),) * 5

    def test_demo_game_matches_oracle(self):
        pd = nucleolus_primal_dual(DEMO_GAME)
        bf = nucleolus_bruteforce(oracle_of(DEMO_GAME), 3)
        assert pd.values == bf.values == (THIRD, THIRD, THIRD)

    def test_market_with_idle_strong_player(self):
        # strongest pair tied, middle player owns nothing
        g = single_market([1, 0, 0], [F(0), F(1, 2), F(1, 2)])
        assert nucleolus_primal_dual(g).values == (F(1, 2), F(1, 4), F(1, 4))

    def test_single_player(self):
        g = single_market([5], [F(1)])
        assert nucleolus_primal_dual(g).values == (F(5),)

    def test_zero_profit_game(self):
        g = single_market([0, 0], [F(1, 2), F(1, 2)])
        assert nucleolus_primal_dual(g).values == (F(0), F(0))

    def test_denormalization(self):
        inst = normalize(
            Instance(
                ("a", "b"), ("m",), (F(4),),
                ((F(1),), (F(3),)), ((F(2),), (F(2),)), (None, None),
            )
        )
        from coopshare import to_single_market

        g = to_single_market(inst, 0)
        alloc = nucleolus_primal_dual(g)
        assert alloc.values == (F(8), F(4))
        assert alloc.total == 12

    def test_trace_records_rounds(self):
        g = single_market([3, 1], [F(1, 2), F(1, 2)])
        trace = []
        nucleolus_primal_dual(g, trace=trace)
        assert len(trace) == 1
        step = trace[0]
        assert step.step == F(1, 2)
        assert step.epsilon == F(1, 2)
        assert step.fixed.members() == (2,)
        assert step.family.members() == (2,)

    def test_trace_invariants_across_random_games(self):
        rng = random.Random(13)
        for _ in range(120):
            n = rng.randint(2, 8)
            g = random_single_market(rng, n)
            trace = []
            nucleolus_primal_dual(g, trace=trace)
            assert 1 <= len(trace) <= n - 1
            eps = F(0)
            seen = 0
            for entry in trace:
                assert entry.step >= 0
                assert entry.epsilon >= eps
                eps = entry.epsilon
                assert len(entry.family) > seen
                seen = len(entry.family)


class TestSchemeState:
    """`_check_drop_one` on the scheme's integer state x = nums / den,
    epsilon = eps / den and the fixed mask."""

    def test_validate_checks_every_unfixed_player(self):
        g = single_market([3, 2, 1, 1], [F(1, 4)] * 4)
        nums, den = [3, 3, 3, 3], 4  # the start: x = alpha_1 * share
        _check_drop_one(g, nums, 0, den, 0)
        nums[1] += 1  # loosens N\{i} for every i other than 2
        with pytest.raises(InternalError, match="drop-one tightness"):
            _check_drop_one(g, nums, 0, den, 0)
        # only N\{2} is checked now, and it is still tight
        _check_drop_one(g, nums, 0, den, Coalition.of([3, 4]).mask)

    def test_advance_moves_along_the_direction(self):
        g = single_market([3, 2, 1, 1], [F(1, 4)] * 4)
        fixed = Coalition.of([3])
        x = [F(3, 4) + F(d, 7) for d in improving_direction(fixed, 4)]
        assert x == [F(3, 4) + F(2, 7), F(3, 4) - F(1, 7), F(3, 4), F(3, 4) - F(1, 7)]
        nums, den = g.integer_form.numerators([*x, F(1, 7)])
        eps = nums.pop()
        _check_drop_one(g, nums, eps, den, fixed.mask)
        with pytest.raises(InternalError):
            _check_drop_one(g, nums, 0, den, fixed.mask)  # the level did not move


class TestSeparate:
    def test_finds_violated_pair(self):
        fixed = [(Coalition.full(3), F(1))]
        found = separate(DEMO_GAME, [F(1, 2), F(1, 4), F(1, 4)], F(0), fixed)
        assert found is not None
        assert found.members() == (2, 3)

    def test_feasible_point(self):
        fixed = [(Coalition.full(3), F(1))]
        assert separate(DEMO_GAME, [THIRD, THIRD, THIRD], F(-2), fixed) is None

    def test_bad_point_rejected(self):
        fixed = [(Coalition.full(3), F(1))]
        with pytest.raises(InputError):
            separate(DEMO_GAME, [F(1), F(1), F(1)], F(0), fixed)

    def test_fixed_coalition_beyond_the_game_rejected(self):
        for mask in (0b1000, 0b1001):
            with pytest.raises(InputError):
                separate(DEMO_GAME, [THIRD, THIRD, THIRD], 0, [(Coalition(mask), 0)])

    def test_level_and_fixed_values_read_exactly(self):
        x = [F(1, 2), F(1, 4), F(1, 4)]
        found = separate(DEMO_GAME, x, F(1, 2), [(Coalition.full(3), F(1))])
        assert separate(DEMO_GAME, ["1/2", "1/4", "1/4"], "1/2",
                        [(Coalition.full(3), "1")]) == found
        for eps, total in ((0.5, F(1)), ("1/2", 1.0), ("0.5", F(1)), (F(1, 2), "1/0")):
            with pytest.raises(InputError):
                separate(DEMO_GAME, x, eps, [(Coalition.full(3), total)])

    def test_agrees_with_enumeration(self):
        rng = random.Random(59)
        hits = misses = 0
        for _ in range(150):
            n = rng.randint(2, 8)
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
                        (
                            Coalition(mask),
                            sum(x[k] for k in range(n) if mask >> k & 1),
                        )
                    )
            eps = F(rng.randint(-6, 3), rng.randint(1, 2))
            found = separate(g, x, eps, fixed)
            exists = False
            for mask in range(1, 1 << n):
                vec = [mask >> k & 1 for k in range(n)]
                if span.contains(vec):
                    continue
                excess = sum(x[k] for k in range(n) if mask >> k & 1)
                if excess - value_single_market(g, Coalition(mask)) < eps:
                    exists = True
                    break
            assert (found is not None) == exists
            if found is not None:
                hits += 1
                vec = [found.mask >> k & 1 for k in range(n)]
                assert not span.contains(vec)
                lhs = sum(x[k] for k in range(n) if found.mask >> k & 1)
                assert lhs < value_single_market(g, found) + eps
            else:
                misses += 1
        assert hits > 20 and misses > 20


def point_of(nums, den):
    """The cut's integer point as Fractions: x and epsilon."""
    x = [F(v, den) for v in nums]
    return x[:-1], x[-1]


class TestSeparationCut:
    def test_cut_matches_public_separate(self, monkeypatch):
        """The route's cut reads the loop's integer point and span; public
        `separate` takes the point as Fractions and rebuilds the span from
        the fixed list.  Both find the same coalition."""
        calls = []
        real = nucleolus_module._separate

        def spy(g, nums, den, span):
            found = real(g, nums, den, span)
            fixed = [(Coalition(m), r) for m, r in zip(span.masks, span.rhs)]
            calls.append((g, *point_of(nums, den), fixed, found))
            return found

        monkeypatch.setattr(nucleolus_module, "_separate", spy)
        rng = random.Random(1607)
        for n in range(2, 11):
            for _ in range(2):
                nucleolus_separation(random_single_market(rng, n))
        monkeypatch.undo()
        assert {len(c[1]) for c in calls} == set(range(2, 11))
        assert any(c[4] is None for c in calls) and any(c[4] for c in calls)
        for g, x, epsilon, fixed, found in calls:
            assert separate(g, x, epsilon, fixed) == found

    def test_integer_cut_matches_fraction_reference(self, monkeypatch):
        """At every call of the route, the cut over integer weights returns
        the mask that the scan over Fraction weights returns."""
        calls = []
        real = nucleolus_module._separate

        def spy(g, nums, den, span):
            found = real(g, nums, den, span)
            assert found == reference_separate(g, *point_of(nums, den), span)
            calls.append(found)
            return found

        monkeypatch.setattr(nucleolus_module, "_separate", spy)
        rng = random.Random(2611)
        for n in range(2, 11):
            for make in (random_single_market, tied_single_market):
                for _ in range(3):
                    nucleolus_separation(make(rng, n))
        assert None in calls and len(set(calls)) > 50

    def test_integer_cut_matches_fraction_reference_on_ties(self):
        """Arbitrary points whose weights tie with each other and with the
        bound, against spans of random fixed families."""
        rng = random.Random(2612)
        found = ties = 0
        for _ in range(400):
            n = rng.randint(2, 9)
            g = tied_single_market(rng, n)
            x = [rng.choice(g.share) * rng.randint(-1, 3) for _ in range(n)]
            eps = rng.choice(g.share) * rng.randint(-3, 3)
            span = _MaskSpan(n)
            span.add((1 << n) - 1, 0)
            for _ in range(rng.randint(0, n - 1)):
                span.add(rng.randrange(1, 1 << n), 0)
            got = nucleolus_module._separate(g, *g.integer_form.numerators([*x, eps]), span)
            assert got == reference_separate(g, x, eps, span)
            found += got is not None
            weights = [[x[j] - a * g.share[j] for j in range(k + 1, n)]
                       for k, a in enumerate(g.alpha)]
            ties += any(len(set(w)) < len(w) for w in weights)
        assert 50 < found < 350 and ties > 200


class TestSeparationScheme:
    def test_matches_primal_dual_on_examples(self):
        for alpha, share in [
            ([3, 1], [F(1, 2), F(1, 2)]),
            ([1, 1, 0], [THIRD, THIRD, THIRD]),
            ([1, 0, 0], [F(0), F(1, 2), F(1, 2)]),
            ([5], [F(1)]),
        ]:
            g = single_market(alpha, share)
            assert nucleolus_separation(g) == nucleolus_primal_dual(g)


def _holds_cut_rows(lp):
    return any(rel == GE and sum(row[:-1]) > 1 for row, rel in zip(lp.rows, lp.relations))


class Level:
    """One level of the loop as its warm tableau saw it: the tableau, the
    fixed coalitions (mask, r_T), the pool masks in order of arrival with
    their values, and every solve as (pool size then, result)."""

    def __init__(self, tableau, n, fixed):
        self.tableau, self.n, self.fixed = tableau, n, fixed
        self.pool, self.values, self.solves = [], {}, []

    def programs(self):
        """Each solve's result with the level program it solved."""
        for size, res in self.solves:
            yield level_program(self.n, self.pool[:size], self.values, self.fixed), res


def record_levels(monkeypatch) -> list:
    """Patch the level loop's tableau to record every level it solves."""
    levels = []

    def mask_of(coeffs):
        return sum(1 << k for k, a in enumerate(coeffs[:-1]) if a)

    class Recorded(LazyRows):
        def __init__(self, objective, equalities, rows):
            equalities, rows = list(equalities), list(rows)
            super().__init__(objective, equalities, rows)
            self._record(len(objective) - 1, [], equalities,
                         [(mask_of(a), v) for a, v in rows])

        def _record(self, n, fixed, equalities, pool):
            # a new level: the earlier fixed coalitions, then `equalities`
            self.level = Level(self, n, fixed + [(mask_of(a), r) for a, r in equalities])
            levels.append(self.level)
            self._note(pool)

        def _note(self, pool):
            for mask, v in pool:
                self.level.pool.append(mask)
                self.level.values[mask] = v

        def add(self, rows):
            rows = list(rows)
            super().add(rows)
            self._note((mask_of(a), v) for a, v in rows)

        def next_level(self, equalities, keep):
            # the carried tableau is the next level's program: every
            # equality so far and the kept pool, in order
            equalities, keep = list(equalities), list(keep)
            super().next_level(equalities, keep)
            old = self.level
            self._record(old.n, old.fixed, equalities,
                         [(m, old.values[m]) for m in compress(old.pool, keep)])

        def solve(self):
            res = super().solve()
            self.level.solves.append((len(self.level.pool), lazy_result(res)))
            return res

    monkeypatch.setattr(nucleolus_module, "LazyRows", Recorded)
    return levels


def record_spans(monkeypatch) -> list:
    """Patch the level loop to record each run's final span with the point
    it returns, as (span, point)."""
    runs, spans = [], []
    real = nucleolus_module._sequential_lp

    class Recorded(_MaskSpan):
        def __init__(self, n):
            super().__init__(n)
            spans.append(self)

    def loop(n, value, cut):
        point, least_core = real(n, value, cut)
        runs.append((spans[-1], point))
        return point, least_core

    monkeypatch.setattr(nucleolus_module, "_MaskSpan", Recorded)
    monkeypatch.setattr(nucleolus_module, "_sequential_lp", loop)
    return runs


class TestLevelProgramCertificates:
    def test_both_orientations_certify_the_routes_programs(self, monkeypatch):
        # level programs are degenerate, with many rows and only free
        # variables; the separation route reads res.tight off them.  Every
        # warm solve is certified against the program it stands for, which
        # `solve_lp` and the reference on its dual tableau also certify.
        levels = record_levels(monkeypatch)
        rng = random.Random(2604)
        with_cuts = {"separation": False, "brute force": False}
        for n in range(4, 8):
            g = random_single_market(rng, n)
            for name, route in (
                ("separation", lambda: nucleolus_separation(g)),
                ("brute force", lambda: nucleolus_bruteforce(oracle_of(g), n)),
            ):
                before = len(levels)
                route()
                assert len(levels) > before
                with_cuts[name] |= any(_holds_cut_rows(lp) for level in levels[before:]
                                       for lp, _ in level.programs())
        # both routes start from the singletons, so a row of size 2 or
        # more came from a cut
        assert all(with_cuts.values())
        for level in levels:
            for lp, warm in level.programs():
                assert_optimal_certificate(lp, warm)
                for res in (solve_lp(lp), solve_on_dual(lp, tight=True)):
                    assert_optimal_certificate(lp, res)

    def test_one_cold_tableau_per_run(self, monkeypatch):
        """Each run of the level loop builds its tableau cold once and
        carries it into every later level; no level is rebuilt."""
        levels = record_levels(monkeypatch)
        rng = random.Random(2025)
        carried = 0
        for n in range(2, 9):
            g = random_single_market(rng, n)
            capped = random_capacitated_integral(rng, n, 2)
            for route in (lambda: nucleolus_separation(g),
                          lambda: nucleolus_bruteforce(oracle_of(g), n),
                          lambda: nucleolus_bruteforce(capped, n)):
                levels.clear()
                route()
                assert levels and all(level.tableau is levels[0].tableau for level in levels)
                carried += len(levels) - 1
        assert carried >= 20


class TestBruteForce:
    def test_multi_market_demo(self):
        inst = normalize(
            Instance(
                ("a", "b", "c"),
                ("m1", "m2", "m3"),
                (F(1), F(1), F(1)),
                ((F(0), F(0), F(0)), (F(0), F(1), F(1)), (F(1), F(1), F(0))),
                ((F(1), F(0), F(1)), (F(0), F(1), F(1)), (F(1), F(1), F(0))),
                (None, None, None),
            )
        )
        alloc = nucleolus_bruteforce(inst, 3)
        assert alloc.values == (F(10, 3), F(4, 3), F(4, 3))
        assert alloc.total == 6

    def test_two_player_standard_split(self):
        v = {1: F(2), 2: F(3), 3: F(9)}
        alloc = nucleolus_bruteforce(lambda s: v[s.mask], 2)
        assert alloc.values == (F(4), F(5))

    def test_single_player(self):
        alloc = nucleolus_bruteforce(lambda s: F(7), 1)
        assert alloc.values == (F(7),)

    def test_size_guard(self):
        with pytest.raises(SizeError):
            nucleolus_bruteforce(lambda s: F(0), 13)

    def test_capacitated_instance_lands_in_core(self):
        inst = normalize(
            Instance(
                ("a", "b", "c"),
                ("m1", "m2"),
                (F(6), F(5)),
                ((F(1), F(2)), (F(2), F(1)), (F(5), F(5))),
                ((F(2), F(0)), (F(0), F(2)), (F(1), F(1))),
                (F(3), F(4), F(2)),
            )
        )
        alloc = nucleolus_bruteforce(inst, 3)
        assert sum(alloc.values) == alloc.total == value_general(inst, Coalition.full(3))
        assert core_check(inst, alloc.values, 3).in_core


def reference_bruteforce(value, n):
    """The face-probing sequential-LP nucleolus: each level fixes every
    coalition whose payoff is constant on the optimal face, certified by
    maximizing that payoff over the face (one extra LP per candidate that
    the running mean of the probe optima does not rule out)."""
    full = (1 << n) - 1
    vals = {m: value(Coalition(m)) for m in range(1, full + 1)}
    if n == 1:
        return (vals[1],)

    def chi(m):
        return tuple(m >> k & 1 for k in range(n))

    span = RowSpace()
    span.add(chi(full))
    fixed = [(full, vals[full])]
    free = list(range(1, full))
    while span.rank < n:
        free = [m for m in free if not span.contains(chi(m))]
        eq_rows = tuple(chi(m) for m, _ in fixed)
        eq_rhs = tuple(r for _, r in fixed)
        rels = (GE,) * len(free) + (EQ,) * len(fixed)
        level = solve_on_dual(LinearProgram(
            MAX, (0,) * n + (1,),
            tuple(chi(m) + (-1,) for m in free) + tuple(r + (0,) for r in eq_rows),
            rels, tuple(vals[m] for m in free) + eq_rhs, (FREE,) * (n + 1),
        ))
        xstar, eps = level.x[:n], level.x[n]
        face_rows = tuple(chi(m) for m in free) + eq_rows
        face_rhs = tuple(vals[m] + eps for m in free) + eq_rhs
        constant = RowSpace()
        for row in eq_rows:
            constant.add(row)
        point_sum, points = list(xstar), 1
        for m in free:
            at_mean = sum(point_sum[k] for k in range(n) if m >> k & 1)
            if at_mean > (vals[m] + eps) * points or constant.contains(chi(m)):
                continue
            probe = solve_on_dual(
                LinearProgram(MAX, chi(m), face_rows, rels, face_rhs, (FREE,) * n)
            )
            if probe.value == vals[m] + eps:
                constant.add(chi(m))
            else:
                point_sum = [a + b for a, b in zip(point_sum, probe.x)]
                points += 1
        added = 0
        for m in free:
            if constant.contains(chi(m)) and span.add(chi(m)):
                fixed.append((m, sum(xstar[k] for k in range(n) if m >> k & 1)))
                added += 1
        assert added
    return solve_linear_system([chi(m) for m, _ in fixed], [r for _, r in fixed])


class TestBruteForceOnGeneralGames:
    def test_matches_face_probing_reference(self):
        rng = random.Random(8128)
        games = 0
        for n in range(2, 7):
            for m in (2, 3):
                for make in (random_capacitated_integral, random_uncapacitated):
                    for _ in range(2):
                        inst = make(rng, n, m)
                        got = nucleolus_bruteforce(inst, n)
                        assert got.values == reference_bruteforce(cold_oracle(inst), n)
                        games += 1
        assert games == 40

    def test_matches_reference_where_many_rows_bind(self):
        """Arbitrary characteristic functions, and market games past the
        sizes above: the lazy rows reach the reference's nucleolus."""
        rng = random.Random(1995)
        tables = [(random_table_oracle(rng, n), n) for n in range(2, 10) for _ in range(2)]
        games = [(value, value, n) for value, n in tables]
        games += [
            (inst, cold_oracle(inst), n)
            for n in (7, 8) for m in (2, 3)
            for make in (random_capacitated_integral, random_uncapacitated)
            for inst in [make(rng, n, m)]
        ]
        for source, value, n in games:
            assert nucleolus_bruteforce(source, n).values == reference_bruteforce(value, n)

    def test_matches_primal_dual_up_to_the_guard(self):
        rng = random.Random(1997)
        for n in range(9, 13):
            for _ in range(2):
                g = random_single_market(rng, n)
                assert nucleolus_bruteforce(oracle_of(g), n) == nucleolus_primal_dual(g)

    def test_level_programs_only_and_at_most_n_minus_1(self, monkeypatch):
        """The level loop solves only on its warm tableaus, never through
        `solve_lp`, and at most n - 1 of its solves end a level: the solves
        after which the cut finds nothing."""
        levels = record_levels(monkeypatch)
        cuts, lp_calls, in_loop = [], [], []
        real_loop = nucleolus_module._sequential_lp

        def loop(n, value, cut):
            def recorded(*args):
                found = cut(*args)
                cuts.append(len(found))
                return found

            in_loop.append(True)
            try:
                return real_loop(n, value, recorded)
            finally:
                in_loop.pop()

        for module in list(sys.modules.values()):
            real_solve = getattr(module, "solve_lp", None)
            if module.__name__.startswith("coopshare") and real_solve is not None:
                def solve(lp, real_solve=real_solve):
                    if in_loop:
                        lp_calls.append(lp)
                    return real_solve(lp)

                monkeypatch.setattr(module, "solve_lp", solve)
        monkeypatch.setattr(nucleolus_module, "_sequential_lp", loop)
        rng = random.Random(4096)
        sources = [
            (oracle_of(random_single_market(rng, n)), n)
            for n in range(2, 9) for _ in range(3)
        ] + [
            (random_capacitated_integral(rng, n, 2), n)
            for n in range(2, 7) for _ in range(3)
        ]
        for source, n in sources:
            levels.clear()
            cuts.clear()
            nucleolus_bruteforce(source, n)
            assert len(cuts) == sum(len(level.solves) for level in levels)
            assert 1 <= cuts.count(0) <= n - 1
            assert cuts.count(0) == len(levels)
            assert cuts[-1] == 0
        assert not hasattr(nucleolus_module, "solve_lp")
        assert not lp_calls

    def test_level_programs_never_hold_every_coalition(self, monkeypatch):
        """The level programs start from the singletons and grow by cuts;
        no level's tableau holds all 2^n - 2 coalitions as pool columns."""
        levels = record_levels(monkeypatch)
        rng = random.Random(1995)
        n = 10
        for make in (random_capacitated_integral, random_uncapacitated):
            for m in (2, 3):
                levels.clear()
                assert nucleolus_bruteforce(make(rng, n, m), n).in_core
                assert levels and max(len(level.pool) for level in levels) < (1 << n) - 2

    def test_cut_is_the_batched_cuts_first_coalition(self, monkeypatch):
        """At every call of the route's cut, on single-market and capacitated
        tables, its one coalition is the first of the up to 4n that the
        batched reference returns, and it returns none exactly when the
        reference does."""
        batches = []
        real = nucleolus_module._sequential_lp

        def loop(n, value, cut):
            table = [value(m) for m in range(1 << n)]

            def checked(nums, up, span):
                found = cut(nums, up, span)
                batch = reference_bruteforce_cut(table, n, nums, up, span)
                assert list(found) == batch[:1]
                batches.append(len(batch))
                return found

            return real(n, value, checked)

        monkeypatch.setattr(nucleolus_module, "_sequential_lp", loop)
        rng = random.Random(2905)
        for n in range(2, 10):
            for _ in range(2):
                nucleolus_bruteforce(oracle_of(random_single_market(rng, n)), n)
                nucleolus_bruteforce(random_capacitated_integral(rng, n, rng.randint(1, 3)), n)
        assert 0 in batches and max(batches) > 1


class TestBruteForceCoreVerdict:
    """The brute-force route's in_core, read off the least-core value,
    agrees with enumerating every coalition at its allocation."""

    @staticmethod
    def _verdicts(games):
        verdicts = []
        for value, n in games:
            got = nucleolus_bruteforce(value, n)
            expected = core_check(value, got.values, n).in_core
            assert got.in_core is expected
            verdicts.append(expected)
        return verdicts

    def test_market_games_are_in_the_core(self):
        rng = random.Random(1969)
        games = [
            (make(rng, n, m), n)
            for n in range(2, 7) for m in (1, 2, 3)
            for make in (random_capacitated_integral, random_uncapacitated)
        ]
        assert all(self._verdicts(games))

    def test_prenucleolus_outside_an_empty_core(self):
        """The route imposes no x_i >= v({i}), so it returns the
        prenucleolus: here it pays players 3 and 4 less than they earn
        alone, and the core is empty."""
        vals = dict(enumerate((0, 0, 10, 1, 8, 7, 8, 5, 1, 5, 0, 2, 8, 0, 7), 1))
        got = nucleolus_bruteforce(lambda s: F(vals[s.mask]), 4)
        assert got.values == (F(17, 5), F(12, 5), F(2, 5), F(4, 5))
        assert got.in_core is False
        assert got.values[2] < vals[0b100] and got.values[3] < vals[0b1000]

    def test_market_games_are_individually_rational(self):
        """Market games have a non-empty core, where the prenucleolus is
        the nucleolus: every player gets at least v({i})."""
        rng = random.Random(2026)
        for n in range(2, 9):
            for make in (random_capacitated_integral, random_uncapacitated):
                inst = make(rng, n, 2)
                got = nucleolus_bruteforce(inst, n)
                assert got.in_core
                assert all(x >= value_general(inst, Coalition(1 << k))
                           for k, x in enumerate(got.values))

    def test_random_characteristic_functions(self):
        rng = random.Random(1979)
        games = []
        for n in range(2, 7):
            for _ in range(12):
                full = (1 << n) - 1
                if rng.random() < 0.5:  # additive minus a surplus: core nonempty
                    w = [F(rng.randint(0, 9), rng.randint(1, 3)) for _ in range(n)]
                    vals = {
                        m: sum(w[k] for k in range(n) if m >> k & 1)
                        - (0 if m == full else F(rng.randint(0, 4), rng.randint(1, 3)))
                        for m in range(1, full + 1)
                    }
                else:
                    vals = {
                        m: F(rng.randint(-6, 12), rng.randint(1, 4))
                        for m in range(1, full + 1)
                    }
                games.append((lambda s, vals=vals: vals[s.mask], n))
        assert set(self._verdicts(games)) == {True, False}


class TestOracleTriangle:
    def test_mini_corpus(self):
        rng = random.Random(4242)
        for _ in range(40):
            n = rng.randint(2, 7)
            g = random_single_market(rng, n)
            pd = nucleolus_primal_dual(g)
            sep = nucleolus_separation(g)
            bf = nucleolus_bruteforce(oracle_of(g), n)
            assert pd.values == sep.values == bf.values
            assert pd.total == g.alpha[0]
            assert core_check(g, pd.values).in_core

    def test_scaling_preserved(self):
        rng = random.Random(77)
        for _ in range(20):
            n = rng.randint(2, 6)
            g = random_single_market(rng, n)
            s = F(rng.randint(1, 7), rng.randint(1, 3))
            scaled = single_market(g.alpha, g.share, scale=s)
            base = nucleolus_primal_dual(g)
            assert nucleolus_primal_dual(scaled).values == tuple(
                v * s for v in base.values
            )


class TestLeximinDefinition:
    @staticmethod
    def _sorted_excesses(g, x):
        full = (1 << g.n) - 1
        out = []
        for mask in range(1, full):
            xs = sum(x[k] for k in range(g.n) if mask >> k & 1)
            out.append(xs - value_single_market(g, Coalition(mask)))
        out.sort()
        return out

    def test_no_challenger_beats_the_nucleolus(self):
        # the definition, checked directly: no other efficient payoff has a
        # lexicographically larger sorted excess vector
        rng = random.Random(271828)
        for _ in range(25):
            n = rng.randint(2, 5)
            g = random_single_market(rng, n)
            x = nucleolus_primal_dual(g).values
            base = self._sorted_excesses(g, x)
            for _ in range(40):
                if rng.random() < 0.5:
                    y = [F(rng.randint(-4, 8), rng.randint(1, 4)) for _ in range(n - 1)]
                else:
                    y = [
                        x[k] + F(rng.randint(-2, 2), rng.randint(1, 6))
                        for k in range(n - 1)
                    ]
                y.append(g.alpha[0] - sum(y))
                if tuple(y) == x:
                    continue
                other = self._sorted_excesses(g, y)
                assert other <= base, (g, y)


def _chi_list(mask, n):
    return [mask >> k & 1 for k in range(n)]


def _span_probes(rng, n, fixed, count):
    """Random masks, and unions, differences and overlaps of the last fixed
    coalitions, which are often in the span; random masks rarely are."""
    probes = [rng.randrange(1 << n) for _ in range(count)]
    return probes + [op(a, b) for a in fixed[-3:] for b in fixed[-3:]
                     for op in (int.__or__, int.__xor__, int.__and__)]


def _base(span):
    """The packing base B = 2 * max over columns t of (L + sum |c_tp|) + 1."""
    return 2 * max((span._lead + sum(map(abs, col.values())) for _, col in span._cols),
                   default=0) + 1


def _cube_in_span(fracs, n, bits, high):
    """For every mask high | S with S over the lowest `bits` bits, whether
    the Fraction echelon residual of its vector is zero.  The residual is
    linear in the vector, so each mask's is the last one's plus its low
    bit's; the unit residuals are scaled to integers, so the sums are exact
    integer vectors."""
    unit = [fracs._residual(_chi_list(1 << k, n)) for k in range(n)]
    scale = lcm(*(v.denominator for row in unit for v in row))
    unit = [[v.numerator * (scale // v.denominator) for v in row] for row in unit]
    sums = [[sum(col) for col in zip([0] * n, *(unit[k] for k in range(n) if high >> k & 1))]]
    for mask in range(1, 1 << bits):
        low = mask & -mask
        sums.append([a + b for a, b in zip(sums[mask ^ low], unit[low.bit_length() - 1])])
    return [not any(v) for v in sums]


class TestMaskSpan:
    def test_matches_fraction_row_space(self):
        rng = random.Random(99)
        answers = set()
        for _ in range(120):
            n = rng.randint(2, 20)
            ints = _MaskSpan(n)
            fracs = RowSpace()
            fixed = []
            for _ in range(rng.randint(1, min(n + 2, 14))):
                mask = rng.randrange(1, 1 << n)
                vec = [mask >> k & 1 for k in range(n)]
                value = F(rng.randint(-9, 9), rng.randint(1, 4))
                assert ints.contains(mask) == fracs.contains(vec)
                added = ints.add(mask, value)
                assert added == fracs.add(vec)
                if added:
                    fixed.append((mask, value))
                for probe in _span_probes(rng, n, [m for m, _ in fixed], 10):
                    answer = ints.contains(probe)
                    assert answer == fracs.contains(_chi_list(probe, n))
                    answers.add((n > 6, n > 12, answer))
            assert ints.rank == fracs.rank
            assert list(zip(ints.masks, ints.rhs)) == fixed
        assert answers == {(big, huge, answer) for big, huge in
                           ((False, False), (True, False), (True, True))
                           for answer in (False, True)}

    def test_every_mask_after_every_add(self):
        rng = random.Random(100)
        for n in range(1, 7):
            for _ in range(8):
                ints, fracs = _MaskSpan(n), RowSpace()
                while ints.rank < n:
                    mask = rng.randrange(1, 1 << n)
                    assert ints.add(mask, F(0)) == fracs.add([mask >> k & 1 for k in range(n)])
                    for probe in range(1 << n):
                        vec = [probe >> k & 1 for k in range(n)]
                        assert ints.contains(probe) == fracs.contains(vec)

    def test_final_span_pins_the_routes_point(self, monkeypatch):
        """Each LP route returns its last level's optimum, which is the one
        solution of the fixed system its span recorded."""
        runs = record_spans(monkeypatch)
        rng = random.Random(1968)
        for n in range(2, 11):
            for _ in range(3):
                g = random_single_market(rng, n)
                assert nucleolus_separation(g).values == g.to_original(runs[-1][1])
        for n in range(2, 8):
            for source in (random_table_oracle(rng, n),
                           random_capacitated_integral(rng, n, 2),
                           random_uncapacitated(rng, n, 3)):
                _, den = coalition_table(source, n, n, "test table")
                got = nucleolus_bruteforce(source, n).values
                assert got == tuple(v / den for v in runs[-1][1])
        assert len(runs) == 27 + 18
        for span, point in runs:
            assert span.rank == span.n == len(point)
            rows = [[m >> k & 1 for k in range(span.n)] for m in span.masks]
            assert point == solve_linear_system(rows, span.rhs)

    def test_wide_bases(self):
        """Dense families on 16 to 20 players give echelon entries, hence
        packing bases, of many bits; each packed weight then holds n - rank
        such digits.  After every add, membership matches the Fraction row
        space on all 2^10 masks over the low bits under a member's high
        part, and on masks one bit away from the family's."""
        rng = random.Random(2020)
        widest, members = 0, 0
        for n, density in ((16, 0.5), (18, 0.3), (20, 0.5), (20, 0.7)):
            ints, fracs, fixed = _MaskSpan(n), RowSpace(), []
            while ints.rank < n - 1:
                mask = sum(1 << k for k in range(n) if rng.random() < density) or 1
                assert ints.add(mask, F(0)) == fracs.add(_chi_list(mask, n))
                fixed.append(mask)
                widest = max(widest, _base(ints).bit_length())
                high = rng.choice(fixed) >> 10 << 10
                cube = _cube_in_span(fracs, n, 10, high)
                assert [ints.contains(high | low) for low in range(1 << 10)] == cube
                members += sum(cube)
                for probe in _span_probes(rng, n, fixed, 4) + [m ^ 1 << k for m in fixed[-2:]
                                                               for k in range(n)]:
                    assert ints.contains(probe) == fracs.contains(_chi_list(probe, n))
        assert widest >= 12 and members > 300

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 20).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(1, (1 << n) - 1), max_size=n + 2),
        st.lists(st.integers(0, (1 << n) - 1), max_size=12),
    )))
    def test_packed_sum_matches_echelon_residual(self, case):
        """For any family, `contains` (one integer sum over the probe's
        bits) is true exactly where the Fraction echelon residual is zero:
        on every mask up to 10 players, on the masks over the lowest 10 bits
        under the last member's high part past that, and on drawn probes
        and the members' unions, differences and overlaps."""
        n, family, probes = case
        ints, fracs = _MaskSpan(n), RowSpace()
        for mask in family:
            assert ints.add(mask, F(0)) == fracs.add(_chi_list(mask, n))
        bits = min(n, 10)
        high = (family[-1] if family else 0) >> bits << bits
        assert [ints.contains(high | low) for low in range(1 << bits)] == _cube_in_span(
            fracs, n, bits, high)
        probes += [op(a, b) for a in family[-4:] for b in family[-4:]
                   for op in (int.__or__, int.__xor__, int.__and__)]
        for probe in probes:
            assert ints.contains(probe) == fracs.contains(_chi_list(probe, n))


def reference_step_size(g, x, epsilon, fixed):
    """The Fraction step size that re-sums each candidate, O(n^3) per call."""
    n = g.n
    fixed_mask = fixed.mask
    budget = n - 1 - len(fixed)
    best = None
    for i in range(2, n + 1):
        a = g.alpha[i - 1]
        in_f = bool(fixed_mask >> (i - 1) & 1)
        base = x[i - 1] - a * g.share[i - 1]
        base_mask = 1 << (i - 1)
        outside = []
        for j in range(i + 1, n + 1):
            w = x[j - 1] - a * g.share[j - 1]
            if fixed_mask >> (j - 1) & 1:
                if w < 0:
                    base += w
                    base_mask |= 1 << (j - 1)
            else:
                outside.append((w, j))
        outside.sort()
        for t in range(1, budget + 1):
            take = t if in_f else t - 1
            if take > len(outside):
                break
            total = base
            mask = base_mask
            for w, j in outside[:take]:
                total += w
                mask |= 1 << (j - 1)
            lam = (total - epsilon) / (1 + t)
            if best is None or lam < best[0]:
                best = (lam, mask)
    return best[0], Coalition(best[1])


def tied_single_market(rng, n):
    """Few distinct margins and shares, so weights and candidate steps tie."""
    alpha = sorted((F(rng.choice([0, 1, 1, 3])) for _ in range(n)), reverse=True)
    weights = [rng.choice([1, 1, 2]) for _ in range(n)]
    total = sum(weights)
    return single_market(alpha, [F(w, total) for w in weights])


def distinct_single_market(rng, n):
    """Distinct profits in 1..10^6 and weights in 1..1000: most rounds take
    a positive step, so den grows and the fixed set fills slowly."""
    alpha = sorted(rng.sample(range(1, 10**6 + 1), n), reverse=True)
    weights = [rng.randint(1, 1000) for _ in range(n)]
    return single_market(alpha, [F(w, sum(weights)) for w in weights])


class TestIntegerStepSize:
    @pytest.fixture
    def compared(self, monkeypatch):
        """Route every integer step of the primal-dual loop through a
        comparison with the reference; counts the rounds compared.  The
        reference sorts the weights afresh, so this also checks that the
        orders the loop keeps across rounds are the ones a sort gives."""
        fast = nucleolus_module._step
        rounds = []

        def both(g, nums, eps, den, fixed_mask, orders, sums):
            got = fast(g, nums, eps, den, fixed_mask, orders, sums)
            x = [F(v, den) for v in nums]
            expected = reference_step_size(g, x, F(eps, den), Coalition(fixed_mask))
            assert (got[0], Coalition(got[1])) == expected
            rounds.append(got[0])
            return got

        monkeypatch.setattr(nucleolus_module, "_step", both)
        return rounds

    def test_matches_reference_every_round(self, compared):
        rng = random.Random(314)
        for _ in range(150):
            g = random_single_market(rng, rng.randint(2, 14))
            nucleolus_primal_dual(g)
        assert len(compared) > 500

    def test_matches_reference_on_planted_ties(self, compared):
        rng = random.Random(2718)
        for _ in range(150):
            g = tied_single_market(rng, rng.randint(2, 14))
            nucleolus_primal_dual(g)
        assert compared.count(0) > 50  # zero steps: ties with the level

    def test_matches_reference_on_distinct_profits(self, compared):
        rng = random.Random(1000)
        for _ in range(60):
            nucleolus_primal_dual(distinct_single_market(rng, rng.randint(2, 14)))
        assert sum(lam > 0 for lam in compared) > 200

    def test_carried_fixed_sums_equal_fresh_sums_every_round(self, monkeypatch):
        """The loop scales its sums over F when den grows and adds each newly
        fixed player's weights; a fresh sum at that round is the same."""
        fast = nucleolus_module._step
        rounds = []

        def fresh(g, nums, eps, den, fixed_mask, orders, sums):
            assert sums == _fixed_sums(g, nums, den, fixed_mask, [0] * g.n)
            rounds.append(fixed_mask)
            return fast(g, nums, eps, den, fixed_mask, orders, sums)

        monkeypatch.setattr(nucleolus_module, "_step", fresh)
        rng = random.Random(77)
        for k in range(120):
            make = (random_single_market, tied_single_market, distinct_single_market)[k % 3]
            nucleolus_primal_dual(make(rng, rng.randint(2, 16)))
        assert sum(mask.bit_count() >= 2 for mask in rounds) > 300

    def test_matches_reference_on_uniform_games(self, compared):
        for n in range(2, 12):
            nucleolus_primal_dual(single_market([F(5, 2)] * n, [F(1, n)] * n))
            nucleolus_primal_dual(single_market(range(n, 0, -1), [F(1, n)] * n))

    def test_matches_reference_off_the_scheme_path(self):
        # arbitrary points and families, not only those the scheme reaches
        rng = random.Random(55)
        for _ in range(300):
            n = rng.randint(2, 9)
            g = random_single_market(rng, n)
            fixed = rng.randrange(0, 1 << (n - 1)) << 1
            if bin(fixed).count("1") == n - 1:
                continue
            x = [F(rng.randint(-3, 9), rng.randint(1, 4)) for _ in range(n)]
            eps = F(rng.randint(-9, 2), rng.randint(1, 3))
            fixed = Coalition(fixed)
            expected = reference_step_size(g, x, eps, fixed)
            if expected[0] < 0:
                with pytest.raises(InternalError):
                    step_size(g, x, eps, fixed)
            else:
                assert step_size(g, x, eps, fixed) == expected

    def test_large_game_is_efficient_and_in_core(self):
        rng = random.Random(150)
        n = 150
        alpha = sorted(
            (F(rng.randint(1000, 9999), 100) for _ in range(n)), reverse=True
        )
        weights = [rng.randint(0, 500) for _ in range(n)]
        g = single_market(alpha, [F(w, sum(weights)) for w in weights])
        trace = []
        x = nucleolus_primal_dual(g, trace=trace).values
        assert sum(x) == g.alpha[0]
        assert min_excess(g, x)[1] >= 0
        assert len(trace) <= n - 1
