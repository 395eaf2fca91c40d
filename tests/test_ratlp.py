import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    RowSpace,
    assert_optimal_certificate,
    dual_program,
    lazy_result,
    level_program,
    solve_linear_system,
    solve_on_dual,
)
from coopshare import (
    InputError,
    InternalError,
    linear_program,
    rat,
    solve_lp,
)
from coopshare import ratlp as ratlp_module
from coopshare.ratlp import LazyRows, WarmStart


def test_rat_parsing():
    assert rat(3) == F(3)
    assert rat("7/2") == F(7, 2)
    assert rat("-4") == F(-4)
    assert rat(F(1, 3)) == F(1, 3)
    for bad in (1.5, "1.5", "1/0", "1e3", True, None, "a/b"):
        with pytest.raises(InputError):
            rat(bad)


def test_single_bound():
    lp = linear_program("max", [1], [([1], "<=", 3)])
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert res.value == 3
    assert res.x == (F(3),)
    assert_optimal_certificate(lp, res)


def test_symmetric_split():
    # max epsilon with two players splitting one unit
    lp = linear_program(
        "max",
        [0, 0, 1],
        [
            ([1, 0, -1], ">=", 0),
            ([0, 1, -1], ">=", 0),
            ([1, 1, 0], "=", 1),
        ],
        domains=["free", "free", "free"],
    )
    res = solve_lp(lp)
    assert res.value == F(1, 2)
    assert res.x == (F(1, 2), F(1, 2), F(1, 2))
    assert_optimal_certificate(lp, res)


def test_worst_excess_program_three_player():
    # max eps s.t. x(S) >= v(S) + eps for the six proper coalitions of the
    # profit vector (1,1,0) with equal thirds; hand enumeration pins the
    # optimum at eps = 0 with the equal split as the only solution.
    v = {
        (1,): F(1, 3), (2,): F(1, 3), (3,): F(0),
        (1, 2): F(2, 3), (1, 3): F(2, 3), (2, 3): F(2, 3),
    }
    rows = []
    for coalition, value in v.items():
        coeffs = [F(1) if p in coalition else F(0) for p in (1, 2, 3)]
        rows.append((coeffs + [F(-1)], ">=", value))
    rows.append(([1, 1, 1, 0], "=", 1))
    lp = linear_program("max", [0, 0, 0, 1], rows, domains=["free"] * 4)
    for res in (solve_lp(lp), solve_on_dual(lp, tight=True)):
        assert res.value == 0
        assert res.x[:3] == (F(1, 3), F(1, 3), F(1, 3))
        assert_optimal_certificate(lp, res)


@pytest.mark.parametrize("solver", [solve_lp, solve_on_dual], ids=["primal", "dual"])
def test_statuses(solver):
    # on the dual tableau (the test-only reference) an infeasible program
    # has an unbounded dual, and an unbounded one an infeasible dual,
    # settled on the primal tableau
    def solve(*args, **kwargs):
        return solver(linear_program(*args, **kwargs))

    assert solve("max", [1], [([1], "<=", 1), ([1], ">=", 2)]).status == "infeasible"
    assert solve("max", [1], [([1], ">=", 3)]).status == "unbounded"
    assert solve("min", [1], [([1], ">=", 3)]).value == 3
    # negative right-hand side exercises the row-flip path
    assert solve("min", [1, 1], [([-1, -1], "<=", -2)]).value == 2
    # free variable can go negative
    assert solve("min", [1], [([1], ">=", -5)], domains=["free"]).value == -5


def test_determinism():
    lp = linear_program(
        "max",
        [3, 2, 4],
        [([1, 1, 2], "<=", 4), ([2, 0, 3], "<=", 5), ([2, 1, 3], "<=", 7)],
    )
    first = solve_lp(lp)
    second = solve_lp(lp)
    assert first == second


def test_degenerate_and_redundant_rows():
    # duplicated and implied rows force degenerate pivots and a redundant
    # equality; Bland's fallback must still terminate
    lp = linear_program(
        "max",
        [1, 1],
        [
            ([1, 1], "<=", 2),
            ([1, 1], "<=", 2),
            ([2, 2], "=", 4),
            ([1, 0], "<=", 2),
        ],
    )
    res = solve_lp(lp)
    assert res.value == 2
    assert_optimal_certificate(lp, res)


def _random_lp(rng: random.Random):
    n = rng.randint(1, 4)
    m = rng.randint(1, 5)
    sense = rng.choice(["max", "min"])
    doms = [rng.choice(["nonneg", "nonneg", "free"]) for _ in range(n)]
    obj = [F(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(n)]
    rows = []
    for _ in range(m):
        coeffs = [F(rng.randint(-3, 3)) for _ in range(n)]
        rel = rng.choice(["<=", ">=", "="])
        rhs = F(rng.randint(-4, 4), rng.randint(1, 2))
        rows.append((coeffs, rel, rhs))
    # box the free variables so random programs are rarely unbounded
    for j, dom in enumerate(doms):
        bound = [F(0)] * n
        bound[j] = F(1)
        rows.append((bound, "<=", F(rng.randint(1, 6))))
        if dom == "free":
            rows.append((bound, ">=", F(-rng.randint(1, 6))))
    return linear_program(sense, obj, rows, doms)


def test_random_certificates():
    rng = random.Random(2024)
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(250):
        lp = _random_lp(rng)
        res = solve_lp(lp)
        statuses[res.status] += 1
        if res.status == "optimal":
            assert_optimal_certificate(lp, res)
            # the reference on the dual tableau agrees on the exact optimum
            other = solve_on_dual(lp, tight=True)
            assert other.status == "optimal"
            assert other.value == res.value
            assert_optimal_certificate(lp, other)
    assert statuses["optimal"] > 100
    assert statuses["infeasible"] > 10


def test_dual_construction_round_trip():
    rng = random.Random(5)
    for _ in range(60):
        lp = _random_lp(rng)
        res = solve_lp(lp)
        if res.status != "optimal":
            continue
        dual, _ = dual_program(lp)
        dres = solve_lp(dual)
        assert dres.status == "optimal"
        assert dres.value == res.value


def test_integral_vertices_for_unimodular_rows():
    # a tiny transportation block: interval rows over y >= 0 with integer
    # data admit only integer vertices
    lp = linear_program(
        "max",
        [2, 3, 1, 4],
        [
            ([1, 1, 0, 0], "=", 3),
            ([0, 0, 1, 1], "=", 2),
            ([1, 0, 1, 0], "<=", 4),
            ([0, 1, 0, 1], "<=", 3),
        ],
    )
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert all(v.denominator == 1 for v in res.x)


def _warm_program(rng, sense, n):
    """Integer rows over n variables: some equalities, then `<=` rows
    ending in an all-ones row that bounds every variable."""
    eq = [[rng.randint(0, 3) for _ in range(n)] for _ in range(rng.randint(0, 2))]
    le = [[rng.randint(0, 3) for _ in range(n)] for _ in range(rng.randint(0, 2))]
    le.append([1] * n)
    objective = [F(rng.randint(-3, 5), rng.randint(1, 3)) for _ in range(n)]

    def program(x0, slack):
        # feasible by construction: x0 meets the equalities, slack >= 0
        b = [sum(a * x for a, x in zip(row, x0)) for row in eq]
        b += [sum(a * x for a, x in zip(row, x0)) + s for row, s in zip(le, slack)]
        rows = [(row, "=", v) for row, v in zip(eq, b)]
        rows += [(row, "<=", v) for row, v in zip(le, b[len(eq):])]
        return linear_program(sense, objective, rows)

    return eq, le, program


def _move_to(warm, rhs, target):
    """Move `warm` from the right-hand side `rhs` to the integers `target`,
    by the entries that differ, and set rhs to target: the re-solved
    value."""
    change = [(k, int(b) - a) for k, (a, b) in enumerate(zip(rhs, target)) if b != a]
    rhs[:] = map(int, target)
    num, den = warm.move(change)
    assert type(num) is type(den) is int and den > 0
    return F(num, den)


def test_warm_start_matches_cold_solves():
    rng = random.Random(515)
    programs = 0
    while programs < 60:
        n = rng.randint(1, 5)
        sense = rng.choice(["max", "min"])
        eq, le, program = _warm_program(rng, sense, n)
        space = RowSpace()
        if not all(space.add(row) for row in eq):
            continue  # the equalities must have full row rank
        programs += 1

        def draw():
            x0 = [rng.randint(0, 4) for _ in range(n)]
            return program(x0, [rng.randint(0, 3) for _ in le])

        start = draw()
        warm, rhs = WarmStart(start), [int(b) for b in start.rhs]
        for _ in range(12):
            lp = draw()
            assert _move_to(warm, rhs, lp.rhs) == solve_lp(lp).value


def test_warm_start_refusals():
    lp = linear_program("max", [1, 2], [([1, 1], "=", 2), ([0, 1], "<=", 1)])
    warm, rhs = WarmStart(lp), [2, 1]
    assert _move_to(warm, rhs, [2, 1]) == 3
    assert _move_to(warm, rhs, [3, 0]) == 3
    with pytest.raises(InternalError):  # no x >= 0 sums to -1
        _move_to(warm, rhs, [-1, 1])
    infeasible = linear_program("max", [1], [([1], "=", 2), ([1], "<=", 1)])
    with pytest.raises(InternalError):
        WarmStart(infeasible)
    bounded = WarmStart(linear_program("max", [1], [([1], "=", 1), ([1], "<=", 1)]))
    with pytest.raises(InternalError):
        bounded.move([(0, 1)])  # the equality asks for more than the bound allows
    with pytest.raises(InternalError):  # dependent rows leave an artificial basic
        WarmStart(linear_program("max", [1], [([1], "=", 1), ([1], "=", 1)]))
    with pytest.raises(InternalError):
        WarmStart(linear_program("max", [1], [([1], "<=", "1/2")]))


def test_non_unit_pivots_through_warm_and_cold_solves(monkeypatch):
    """Rows with coefficients 2 and 3 beside 1 pivot on entries other than 1,
    so the general fraction-free update runs beside the unit one (as on a
    transportation matrix, where every pivot is a unit); every cold solve
    is certified and equals the solve on the dual, and every warm re-solve
    equals both."""
    pivots = []
    real = ratlp_module._Tableau.pivot

    def counted(tab, r, c):
        pivots.append(tab.mat[r][c] == tab.div == 1)
        return real(tab, r, c)

    monkeypatch.setattr(ratlp_module._Tableau, "pivot", counted)
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(2, 4)
        rows = [[rng.choice([0, 1, 2, 3]) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        rows.append([rng.choice([1, 2, 3]) for _ in range(n)])  # bounds every variable
        objective = [F(rng.randint(-2, 6), rng.randint(1, 3)) for _ in range(n)]
        sense = rng.choice(["max", "min"])

        def program(rhs):
            return linear_program(sense, objective, [(row, "<=", b) for row, b in zip(rows, rhs)])

        last = [rng.randint(0, 9) for _ in rows]
        warm = WarmStart(program(last))
        for _ in range(6):
            rhs = [rng.randint(0, 9) for _ in rows]
            lp = program(rhs)
            res = solve_lp(lp)
            assert_optimal_certificate(lp, res)
            assert solve_on_dual(lp).value == res.value == _move_to(warm, last, rhs)
    assert True in pivots and False in pivots


def _level_rows(n, masks, eps, values):
    return [(tuple(m >> k & 1 for k in range(n)) + (eps,), values[m]) for m in masks]


def _assert_grows_to_cold_optima(n, fixed, pool, extra, values):
    """Start the level tableau from `pool`, add `extra` one row at a time and
    compare every re-solve with a cold solve of the program so far."""
    lazy = LazyRows(_level_rows(n, [t for t, _ in fixed], 0, dict(fixed)),
                    _level_rows(n, pool, -1, values))
    rows = list(pool)
    for m in [None, *extra]:
        if m is not None:
            lazy.add(_level_rows(n, [m], -1, values))
            rows.append(m)
        res = lazy_result(lazy.solve())
        lp = level_program(n, rows, values, fixed)
        assert res.value == solve_lp(lp).value
        assert_optimal_certificate(lp, res)
    return lazy


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 5), st.data())
def test_lazy_rows_match_cold_solves(n, data):
    """Nucleolus level programs: x(N) and up to n - 2 more coalitions fixed,
    the singletons outside their span as the first rows, then drawn
    coalitions added one at a time."""
    full = (1 << n) - 1
    value = st.fractions(min_value=-6, max_value=6, max_denominator=8)
    space = RowSpace()

    def chi(mask):
        return [mask >> k & 1 for k in range(n)]

    fixed = []
    for t in [full, *data.draw(st.lists(st.integers(1, full - 1), max_size=n - 2))]:
        if space.add(chi(t)):
            fixed.append((t, data.draw(value)))
    pool = [1 << k for k in range(n) if not space.contains(chi(1 << k))]
    extra = [m for m in data.draw(st.lists(st.integers(1, full - 1), unique=True, max_size=10))
             if m not in pool and not space.contains(chi(m))]
    values = {m: data.draw(value) for m in pool + extra}
    _assert_grows_to_cold_optima(n, fixed, pool, extra, values)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.data())
def test_carried_levels_match_cold_solves(n, data):
    """Nucleolus levels on one tableau: each level grows by drawn rows, then
    its binding rows that raise the rank are fixed at v(S) + epsilon and
    `next_level` carries the tableau on, dropping the rows now in the span.
    Every solve matches a cold solve of that level's program."""
    full = (1 << n) - 1
    value = st.fractions(min_value=-6, max_value=6, max_denominator=8)
    space = RowSpace()

    def chi(mask):
        return [mask >> k & 1 for k in range(n)]

    space.add(chi(full))
    fixed = [(full, data.draw(value))]
    pool = [1 << k for k in range(n)]
    values = {m: data.draw(value) for m in pool}
    lazy = LazyRows(_level_rows(n, [full], 0, dict(fixed)),
                    _level_rows(n, pool, -1, values))
    levels = 0
    while True:
        levels += 1
        extra = [m for m in data.draw(st.lists(st.integers(1, full - 1), unique=True,
                                               max_size=4))
                 if m not in pool and not space.contains(chi(m))]
        for m in [None, *extra]:
            if m is not None:
                values[m] = data.draw(value)
                lazy.add(_level_rows(n, [m], -1, values))
                pool.append(m)
            res = lazy_result(lazy.solve())
            lp = level_program(n, pool, values, fixed)
            assert res.value == solve_lp(lp).value
            assert_optimal_certificate(lp, res)
        new = {m: values[m] + res.value for m, y in zip(pool, res.duals)
               if y < 0 and space.add(chi(m))}
        assert new
        if space.rank == n:
            break
        keep = [not space.contains(chi(m)) for m in pool]
        pool = [m for m, k in zip(pool, keep) if k]
        fixed += new.items()
        lazy.next_level(_level_rows(n, new, 0, new), keep)
    assert levels <= n - 1


def test_integer_results_convert_to_certified_results():
    """Seeded nucleolus level programs, grown by drawn rows and carried
    from level to level: each integer `solve` result converts exactly to
    an `LpResult` that passes the certificate `solve_lp` and the reference
    on the dual tableau pass, with their value: the dual certificate holds
    with each multiplier u read as the dual -u / div, and the tight flags
    are the rows' activities.  Where
    the rows with a positive multiplier and the equalities pin x (rank
    n + 1), x is the one optimum, and all three return it."""
    rng = random.Random(2810)
    pinned = solves = 0
    for _ in range(30):
        n = rng.randint(2, 6)
        full = (1 << n) - 1

        def value():
            return F(rng.randint(-12, 12), rng.randint(1, 6))

        space = RowSpace()
        space.add([1] * n)
        fixed = [(full, value())]
        pool = [1 << k for k in range(n)]
        values = {m: value() for m in pool}
        lazy = LazyRows(_level_rows(n, [full], 0, dict(fixed)),
                        _level_rows(n, pool, -1, values))
        while True:
            extra = [m for m in rng.sample(range(1, full), min(3, full - 1))
                     if m not in pool and not space.contains([m >> k & 1 for k in range(n)])]
            for m in [None, *extra]:
                if m is not None:
                    values[m] = value()
                    lazy.add(_level_rows(n, [m], -1, values))
                    pool.append(m)
                raw = lazy.solve()
                nums, den, y, div, tight = raw
                assert all(type(v) is int for v in (*nums, den, *y, div))
                assert len(nums) == n + 1 and len(tight) == len(pool)
                assert len(y) == len(pool) + len(fixed)
                res = lazy_result(raw)
                lp = level_program(n, pool, values, fixed)
                cold, dual = solve_lp(lp), solve_on_dual(lp, tight=True)
                for r in (res, cold, dual):
                    assert_optimal_certificate(lp, r)
                assert res.value == cold.value == dual.value == F(nums[n], den)
                rows = RowSpace()
                for row, u in zip(lp.rows, y):
                    if u or row[-1] == 0:
                        rows.add(row)
                if rows.rank == n + 1:
                    assert res.x == cold.x == dual.x
                    pinned += 1
                solves += 1
            new = {m: values[m] + res.value for m, u in zip(pool, y)
                   if u > 0 and space.add([m >> k & 1 for k in range(n)])}
            assert new
            if space.rank == n:
                break
            keep = [not space.contains([m >> k & 1 for k in range(n)]) for m in pool]
            pool = [m for m, k in zip(pool, keep) if k]
            fixed += new.items()
            lazy.next_level(_level_rows(n, new, 0, new), keep)
    assert solves > 100 and pinned > 50


def test_lazy_rows_rescale_the_cost_row():
    # integer first rows, then violated rows with costs over 3 and over 7:
    # each new denominator multiplies the cost row's scale
    values = {1: 0, 2: 0, 4: 0, 3: F(4, 3), 6: F(9, 7)}
    lazy = _assert_grows_to_cold_optima(3, [(7, F(1))], [1, 2, 4], [3, 6], values)
    assert lazy._scale == 21


def test_lazy_rows_refusals():
    with pytest.raises(InternalError):  # x_2 is not bounded by the rows
        LazyRows([], [((1, 0), 0)])
    # an infeasible program: its dual is unbounded
    lazy = LazyRows([((1, 0), 1)], [((1, -1), 0)])
    lazy.add([((1, 0), 2)])
    assert lazy.solve() is None


def test_programs_without_rows_in_both_orientations():
    for objective, status, value in (([0], "optimal", 0), ([1], "unbounded", None)):
        lp = linear_program("max", objective, [])
        results = [solve_lp(lp), solve_on_dual(lp)]
        assert results[0].status == status and results[0].value == value
        assert results[1] == results[0]


def test_solve_linear_system():
    rows = [[F(2), F(1)], [F(1), F(-1)]]
    assert solve_linear_system(rows, [F(3), F(0)]) == (F(1), F(1))
    with pytest.raises(InternalError):
        solve_linear_system([[F(1), F(1)], [F(2), F(2)]], [F(1), F(2)])


def test_malformed_programs():
    with pytest.raises(InputError):
        linear_program("best", [1], [])
    with pytest.raises(InputError):
        linear_program("max", [1], [([1, 2], "<=", 3)])
    with pytest.raises(InputError):
        linear_program("max", [1], [([1], "<", 3)])
    with pytest.raises(InputError):
        linear_program("max", [1], [([1], "<=", 3)], domains=["boxed"])
