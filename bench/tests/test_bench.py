"""Tests of the benchmark's own arithmetic, references and checkers.

    python3 -m pytest bench/tests -q
"""

import itertools
import json
import random
import statistics
from fractions import Fraction

import pytest

import reference
import run
import stats
import tracing
from workloads import WORKLOADS, CheckError


# --- percentile helper -------------------------------------------------------

def test_tail_needs_forty_samples_and_ten_beyond():
    rng = random.Random(5)
    for n in range(1, 160):
        samples = [rng.choice([0.7, 0.72, 0.73, rng.random()]) for _ in range(n)]
        got = stats.tail(samples)
        if n < stats.MIN_SAMPLES:
            assert got is None
            continue
        value, percentile = got
        ordered = sorted(samples)
        assert value == ordered[n - 11]  # ten samples beyond it
        assert value >= statistics.median(samples)
        assert percentile == 100.0 * (n - 10) / n


def test_tail_of_a_small_desk_run_is_not_reported():
    # twelve samples whose nominal p90 (720 ms) reads below their median (733 ms)
    desk = [0.733] * 7 + [0.700, 0.705, 0.710, 0.715, 0.720]
    assert stats.tail(desk) is None


# --- self time ----------------------------------------------------------------

def _span(sid, parent, name, start, end, item=0):
    return tracing.Span(item, sid, parent, name, start, end)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        _span(0, -1, "root", 0.0, 10.0),
        _span(1, 0, "a", 1.0, 4.0),
        _span(2, 1, "a.inner", 2.0, 3.0),
        _span(3, 0, "b", 5.0, 9.0),
        _span(4, 0, "c", 8.0, 9.5),  # overlaps b: covered once
    ]
    got = tracing.self_times(spans)
    assert got == pytest.approx({0: 2.5, 1: 2.0, 2: 1.0, 3: 4.0, 4: 1.5})


def test_distinct_ratio_counts_repeats_within_one_command():
    spans = [
        _span(0, -1, "cli.main", 0, 10),
        _span(1, 0, "game.value_general", 1, 2),
        _span(2, 0, "game.value_general", 3, 4),
        _span(3, -1, "cli.main", 11, 20),
        _span(4, 3, "game.value_general", 12, 13),
    ]
    masks = {1: 5, 2: 5, 4: 5}  # repeat inside the first command only
    assert tracing.distinct_ratio(spans, masks) == pytest.approx(2 / 3)
    assert tracing.distinct_ratio(spans, {}) == 0.0


# --- references against enumeration --------------------------------------------

def _market(rng, n):
    return [rng.randint(0, 9) for _ in range(n)], [rng.randint(0, 5) for _ in range(n)]


def test_market_shapley_matches_subset_enumeration():
    rng = random.Random(7)
    for n in range(1, 7):
        for _ in range(20):
            profit, demand = _market(rng, n)
            values = reference.all_values(
                lambda s: reference.market_value(profit, demand, s), n)
            assert reference.market_shapley(profit, demand) == reference.subset_shapley(values, n)


def test_market_min_excess_matches_enumeration():
    rng = random.Random(8)
    for n in range(2, 7):
        for _ in range(30):
            profit, demand = _market(rng, n)
            x = [Fraction(rng.randint(0, 40), rng.randint(1, 3)) for _ in range(n)]
            values = reference.all_values(
                lambda s: reference.market_value(profit, demand, s), n)
            excess, members = reference.market_min_excess(profit, demand, x)
            assert excess == reference.min_excess_by_scan(values, x, n)[0]
            mask = sum(1 << i for i in members)
            assert excess == sum(x[i] for i in members) - values[mask]


def test_transport_value_matches_integral_enumeration():
    rng = random.Random(9)
    for _ in range(25):
        n, m = rng.randint(1, 3), rng.randint(1, 2)
        profit = [[rng.randint(0, 9) for _ in range(m)] for _ in range(n)]
        demand = [[rng.randint(0, 3) for _ in range(m)] for _ in range(n)]
        capacity = [sum(row) + rng.randint(0, 3) for row in demand]
        members = list(range(n))
        value, plan = reference.transport_value(profit, demand, capacity, members)
        pooled = [sum(demand[i][j] for i in members) for j in range(m)]
        best = None
        cells = [(i, j) for i in members for j in range(m)]
        for amounts in itertools.product(*(range(pooled[j] + 1) for _i, j in cells)):
            ship = dict(zip(cells, amounts))
            if any(sum(ship[i, j] for i in members) != pooled[j] for j in range(m)):
                continue
            if any(sum(ship[i, j] for j in range(m)) > capacity[i] for i in members):
                continue
            earned = sum(profit[i][j] * ship[i, j] for i, j in cells)
            best = earned if best is None else max(best, earned)
        assert value == best
        assert sum(profit[i][j] * plan[i][j] for i, j in cells) == value


# --- checkers reject planted wrong answers ---------------------------------------

SEVENTH = Fraction(1, 7)


@pytest.fixture(scope="module")
def one_request(tmp_path_factory):
    """workload name -> (workload, cs, item, output) for one real request each."""
    made = {}
    for name, workload in WORKLOADS.items():
        cs, items = run.set_up(workload, 3, str(tmp_path_factory.mktemp(name)))
        item = items[0]
        out = workload.run(cs, item)
        workload.check(cs, item, out)  # the real output passes
        made[name] = (workload, cs, item, out)
    return made


def _shift(values):
    values = list(values)
    values[0] += SEVENTH
    values[-1] -= SEVENTH
    return tuple(values)


def _rejects(entry, out):
    workload, cs, item, _out = entry
    with pytest.raises(CheckError):
        workload.check(cs, item, out)


def test_market_scale_checker_rejects_shifted_payoffs(one_request):
    entry = one_request["market-scale"]
    cs = entry[1]
    nucleoli, shapley, core, per_market, dec = entry[3]

    def moved(alloc):
        return cs.Allocation(_shift(alloc.values), alloc.total)

    _rejects(entry, (moved(nucleoli), shapley, core, per_market, dec))
    _rejects(entry, (nucleoli, moved(shapley), core, per_market, dec))
    _rejects(entry, (nucleoli, shapley, moved(core), per_market, dec))
    part, verdict = per_market[0]
    _rejects(entry, (nucleoli, shapley, core, [(_shift(part), verdict)] + per_market[1:], dec))


def test_sequential_lp_checker_rejects_one_route_off(one_request):
    entry = one_request["sequential-lp"]
    fast, cuts, brute = entry[3]
    _rejects(entry, (fast, _shift(cuts), brute))
    _rejects(entry, (fast, cuts, _shift(brute)))
    everyone_off = tuple(v + SEVENTH for v in fast)
    _rejects(entry, (everyone_off, everyone_off, everyone_off))


def test_capacitated_cli_checker_rejects_wrong_reports(one_request):
    entry = one_request["capacitated-cli"]
    nucleolus, shapley, check, value = entry[3]

    def edited(result, change):
        doc = json.loads(result[1])
        change(doc)
        return (result[0], json.dumps(doc), result[2])

    def shift_report(doc):
        first, last = doc["allocation"][0], doc["allocation"][-1]
        first["exact"] = str(Fraction(first["exact"]) + SEVENTH)
        last["exact"] = str(Fraction(last["exact"]) - SEVENTH)

    def outside_core(doc):
        first, last = doc["allocation"][0], doc["allocation"][-1]
        last["exact"] = str(Fraction(last["exact"]) + Fraction(first["exact"]))
        first["exact"] = "0"

    _rejects(entry, (nucleolus, edited(shapley, shift_report), check, value))
    _rejects(entry, (edited(nucleolus, outside_core), shapley, check, value))
    _rejects(entry, (nucleolus, shapley, edited(check, lambda d: d.update(in_core=False)), value))
    _rejects(entry, (nucleolus, shapley, check,
                     edited(value, lambda d: d["value"].update(exact="1/7"))))
    _rejects(entry, ((2, "", "error"), shapley, check, value))
