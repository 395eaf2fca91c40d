import argparse
import contextlib
import io
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ATOMS,
    CAPACITATED_FIXTURE,
    HUGE,
    MULTI_MARKET_FIXTURE,
    SINGLE_MARKET_FIXTURE,
    cold_oracle,
    random_uncapacitated,
    record_warm_moves,
)
from coopshare import (
    Allocation,
    InputError,
    core_check,
    dumps_instance,
    loads_instance,
    normalize,
    parse_instance,
    to_single_market,
    value_general,
)
from coopshare import cli as cli_module
from coopshare import game as game_module
from coopshare.cli import main
from coopshare.files import decimal_string
from coopshare.game import ENUMERATION_LIMIT
from coopshare.nucleolus import BRUTE_FORCE_LIMIT
from coopshare.shapley import SUBSET_LIMIT


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json-style")
    assert code == 0, err
    return json.loads(out)


SM = str(SINGLE_MARKET_FIXTURE)
MM = str(MULTI_MARKET_FIXTURE)
CAP = str(CAPACITATED_FIXTURE)


class TestInstanceFiles:
    def test_round_trip_identity(self):
        inst = parse_instance(MM)
        again = loads_instance(dumps_instance(inst))
        assert again == inst
        inst2 = parse_instance(SM)
        assert loads_instance(dumps_instance(inst2)) == inst2

    def test_float_literals_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"players": ["a"], "markets": [{"name": "m", "price": 1.5}],'
            ' "cost": [[1]], "demand": [[1]], "capacity": ["inf"]}'
        )
        with pytest.raises(InputError, match="float"):
            parse_instance(str(path))

    def test_float_strings_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"players": ["a"], "markets": [{"name": "m", "price": "0.5"}],'
            ' "cost": [[1]], "demand": [[1]], "capacity": ["inf"]}'
        )
        with pytest.raises(InputError, match="price"):
            parse_instance(str(path))

    def _bad_demand(self, tmp_path, cell):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"players": ["a", "b"], "markets": [{"name": "m", "price": 1}],'
            ' "cost": [[1], [1]], "demand": [[1], [CELL]], "capacity": ["inf", "inf"]}'
            .replace("CELL", cell)
        )
        with pytest.raises(InputError) as err:
            parse_instance(str(path))
        return str(err.value)

    def test_errors_name_the_field(self, tmp_path):
        error = self._bad_demand(tmp_path, '"2/x"')
        assert error.startswith("demand[2][1]: malformed rational '2/x'")

    def test_malformed_and_negative_cells_are_named_alike(self, tmp_path):
        # a number that does not read and one that reads but is negative:
        # both errors count the player and the market from 1
        assert self._bad_demand(tmp_path, "-1") == "demand[2][1] is negative: -1"
        assert self._bad_demand(tmp_path, '"2/x"').startswith("demand[2][1]:")


class TestDecimalString:
    def test_rendering(self):
        assert decimal_string(F(1, 3), 6) == "0.333333"
        assert decimal_string(F(2, 3), 6) == "0.666667"
        assert decimal_string(F(-5, 2), 3) == "-2.500"
        assert decimal_string(F(7), 0) == "7"
        assert decimal_string(F(10, 3), 2) == "3.33"


class TestValueCommand:
    def test_grand_coalition(self, capsys):
        report = run_json(capsys, "value", MM, "--coalition", "all")
        assert report["value"]["exact"] == "6"
        assert report["value"]["decimal"] == "6.000000"

    def test_named_coalition(self, capsys):
        report = run_json(capsys, "value", MM, "--coalition", "B,C")
        assert report["value"]["exact"] == "2"
        assert report["coalition"] == ["B", "C"]

    def test_singleton(self, capsys):
        report = run_json(capsys, "value", SM, "--coalition", "P1")
        assert report["value"]["exact"] == "1/3"

    def test_plan(self, capsys):
        report = run_json(capsys, "value", MM, "--coalition", "all", "--plan")
        assert report["value"]["exact"] == "6"
        shipped = {
            entry["player"]: entry["shipments"] for entry in report["plan"]
        }
        assert set(shipped) == {"A"}
        assert shipped["A"]["M1"]["exact"] == "2"

    def test_unknown_player(self, capsys):
        code, _, err = run(capsys, "value", MM, "--coalition", "A,Z")
        assert code == 2
        assert "unknown player" in err

    def test_empty_spec(self, capsys):
        code, _, err = run(capsys, "value", MM, "--coalition", " ")
        assert code == 2
        assert "empty coalition" in err

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "value", str(path), "--coalition", "all")
        assert code == 2


class TestAllocateCommand:
    def test_sum_nucleoli_multi_demo(self, capsys):
        report = run_json(capsys, "allocate", MM, "--method", "sum-nucleoli")
        values = [entry["exact"] for entry in report["allocation"]]
        assert values == ["3", "3/2", "3/2"]
        assert report["core"] is True
        assert report["total"]["exact"] == "6"

    def test_oracle_nucleolus_multi_demo(self, capsys):
        report = run_json(
            capsys, "allocate", MM, "--method", "nucleolus", "--oracle"
        )
        values = [entry["exact"] for entry in report["allocation"]]
        assert values == ["10/3", "4/3", "4/3"]
        assert report["core"] is True

    def test_fast_nucleolus_single_market(self, capsys, tmp_path):
        doc = {
            "players": ["a", "b"],
            "markets": [{"name": "m", "price": 4}],
            "cost": [[1], [3]],
            "demand": [[1], [1]],
            "capacity": ["inf", "inf"],
        }
        path = tmp_path / "two.json"
        path.write_text(json.dumps(doc))
        report = run_json(capsys, "allocate", str(path), "--method", "nucleolus")
        values = [entry["exact"] for entry in report["allocation"]]
        assert values == ["4", "2"]

    def test_core_point(self, capsys):
        report = run_json(capsys, "allocate", MM, "--method", "core-point")
        values = [entry["exact"] for entry in report["allocation"]]
        assert values == ["2", "2", "2"]

    def test_shapley(self, capsys):
        report = run_json(capsys, "allocate", MM, "--method", "shapley")
        values = [entry["exact"] for entry in report["allocation"]]
        assert values == ["10/3", "4/3", "4/3"]

    def test_multi_market_nucleolus_needs_oracle(self, capsys):
        code, _, err = run(capsys, "allocate", MM, "--method", "nucleolus")
        assert code == 2
        assert "--oracle" in err
        assert f"--oracle (n <= {BRUTE_FORCE_LIMIT})" in err

    def test_fast_nucleolus_refusal_advises_only_routes_that_run(self, capsys):
        """Both files have two markets; `sum-nucleoli` runs on the
        uncapacitated one only, so only its refusal suggests it."""
        refusal = ("error: the fast nucleolus needs one market and unlimited capacities; "
                   f"use --oracle (n <= {BRUTE_FORCE_LIMIT})")
        assert run(capsys, "allocate", MM, "--method", "nucleolus") == (
            2, "", refusal + " or --method sum-nucleoli\n")
        assert run(capsys, "allocate", CAP, "--method", "nucleolus") == (2, "", refusal + "\n")
        assert run(capsys, "allocate", MM, "--method", "sum-nucleoli")[0] == 0
        assert run(capsys, "allocate", CAP, "--method", "sum-nucleoli")[0] == 2

    def test_oracle_shapley_enumerates_every_instance(self, capsys, tmp_path):
        # additivity: brute force equals the per-market sum on the demo
        report = run_json(capsys, "allocate", MM, "--method", "shapley", "--oracle")
        assert report["method"] == "shapley (brute force)"
        assert [e["exact"] for e in report["allocation"]] == ["10/3", "4/3", "4/3"]
        assert report["core"] is True
        n = SUBSET_LIMIT + 1
        doc = {
            "players": [f"p{i}" for i in range(n)],
            "markets": [{"name": "m", "price": 5}],
            "cost": [[i % 4] for i in range(n)],
            "demand": [[1] for _ in range(n)],
            "capacity": ["inf"] * n,
        }
        path = _write(tmp_path, doc)
        assert run(capsys, "allocate", path, "--method", "shapley")[0] == 0
        code, out, err = run(capsys, "allocate", path, "--method", "shapley", "--oracle")
        assert (code, out) == (3, "")
        assert err == f"error: brute-force Shapley is limited to {SUBSET_LIMIT} players, got {n}\n"

    @pytest.mark.parametrize("method", ["sum-nucleoli", "core-point"])
    def test_oracle_rejected_without_an_enumerating_route(self, capsys, method):
        code, out, err = run(capsys, "allocate", MM, "--method", method, "--oracle")
        assert (code, out) == (2, "")
        assert err == f"error: --oracle needs --method nucleolus or shapley, not {method}\n"

    def test_trace(self, capsys):
        report = run_json(
            capsys, "allocate", SM, "--method", "nucleolus", "--trace"
        )
        assert report["trace"]
        first = report["trace"][0]
        assert {"round", "step", "epsilon", "fixed", "family"} <= set(first)

    def test_trace_rejected_off_fast_path(self, capsys):
        code, _, err = run(
            capsys, "allocate", MM, "--method", "shapley", "--trace"
        )
        assert code == 2

    def test_trace_rejected_on_oracle_route(self, capsys):
        code, _, err = run(
            capsys, "allocate", SM, "--method", "nucleolus", "--oracle", "--trace"
        )
        assert code == 2
        assert "--trace needs the fast nucleolus" in err

    def test_trace_rejected_for_sum_of_nucleoli(self, capsys):
        code, _, err = run(
            capsys, "allocate", SM, "--method", "sum-nucleoli", "--trace"
        )
        assert code == 2
        assert "--trace needs the fast nucleolus" in err

    def test_size_guard_exit_code(self, capsys, tmp_path):
        n = 13
        doc = {
            "players": [f"p{i}" for i in range(n)],
            "markets": [{"name": "m", "price": 2}],
            "cost": [[1] for _ in range(n)],
            "demand": [[1] for _ in range(n)],
            "capacity": ["inf"] * n,
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(
            capsys, "allocate", str(path), "--method", "nucleolus", "--oracle"
        )
        assert code == 3
        assert "12" in err

    def test_internal_error_exit_code(self, capsys, monkeypatch):
        from coopshare import InternalError
        from coopshare import cli as cli_module

        def boom(*args, **kwargs):
            raise InternalError("invariant breached")

        monkeypatch.setattr(cli_module, "sum_of_nucleoli", boom)
        code, _, err = run(capsys, "allocate", MM, "--method", "sum-nucleoli")
        assert code == 4
        assert "internal error" in err

    def test_capacitated_needs_oracle(self, capsys, tmp_path):
        doc = {
            "players": ["a", "b"],
            "markets": [{"name": "m", "price": 4}],
            "cost": [[1], [3]],
            "demand": [[1], [1]],
            "capacity": [2, 1],
        }
        path = tmp_path / "cap.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "allocate", str(path), "--method", "shapley")
        assert code == 2
        assert f"--oracle (n <= {SUBSET_LIMIT})" in err
        report = run_json(
            capsys, "allocate", str(path), "--method", "shapley", "--oracle"
        )
        assert report["allocation"]

    def test_all_markets_empty(self, capsys, tmp_path):
        """Uncapacitated, no market with demand, with one market and with
        two: the game is zero.  `sum-nucleoli` and both nucleolus routes
        report zeros, in the core; the fast nucleolus, under its own
        method, has no rounds to trace."""
        one = {"markets": [{"name": "m", "price": 3}], "cost": [[1], [2]], "demand": [[0], [0]]}
        two = {"markets": [{"name": "m", "price": 3}, {"name": "w", "price": 5}],
               "cost": [[1, 2], [2, 1]], "demand": [[0, 0], [0, 0]]}
        for doc in (one, two):
            path = _write(tmp_path, {"players": ["a", "b"], **doc, "capacity": ["inf", "inf"]})
            sums = run_json(capsys, "allocate", path, "--method", "sum-nucleoli")
            fast = run_json(capsys, "allocate", path, "--method", "nucleolus", "--trace")
            oracle = run_json(capsys, "allocate", path, "--method", "nucleolus", "--oracle")
            assert [e["exact"] for e in sums["allocation"]] == ["0", "0"]
            assert fast["allocation"] == oracle["allocation"] == sums["allocation"]
            assert (fast["method"], fast["trace"]) == ("nucleolus (primal-dual)", [])
            assert fast["total"] == oracle["total"] == {"exact": "0", "decimal": "0.000000"}
            assert fast["core"] is oracle["core"] is True
            assert run(capsys, "allocate", path, "--method", "nucleolus", "--trace") == (0, (
                "method: nucleolus (primal-dual)\n"
                "v(N): 0 (= 0.000000)\n"
                "core: yes\n"
                "  a  0  (= 0.000000)\n"
                "  b  0  (= 0.000000)\n"), "")

    def test_negative_precision_rejected(self, capsys):
        code, _, err = run(
            capsys, "allocate", MM, "--method", "core-point", "--precision", "-1"
        )
        assert code == 2

    def test_human_output_and_determinism(self, capsys):
        code1, out1, _ = run(capsys, "allocate", MM, "--method", "sum-nucleoli")
        code2, out2, _ = run(capsys, "allocate", MM, "--method", "sum-nucleoli")
        assert code1 == code2 == 0
        assert out1 == out2
        assert "method: sum of per-market nucleoli" in out1
        assert "core: yes" in out1
        assert "(= 1.500000)" in out1

    def test_exact_flag_suppresses_decimals(self, capsys):
        _, out, _ = run(
            capsys, "allocate", MM, "--method", "sum-nucleoli", "--exact"
        )
        assert "1.500000" not in out
        assert "3/2" in out

    def test_precision_flag(self, capsys):
        _, out, _ = run(
            capsys, "allocate", MM, "--method", "sum-nucleoli", "--precision", "2"
        )
        assert "(= 1.50)" in out


SMALL_INSTANCE = (
    '{"players": ["a", "b"], "markets": [{"name": "m", "price": PRICE}],'
    ' "cost": [[1], [2]], "demand": [[1], [1]], "capacity": ["inf", "inf"]}'
)


class TestUnreadableInput:
    @pytest.mark.parametrize(
        "name", ['["m"]', "7", "null"], ids=["list", "int", "null"]
    )
    def test_market_name_must_be_a_string(self, capsys, tmp_path, name):
        path = tmp_path / "instance.json"
        path.write_text(SMALL_INSTANCE.replace('"m"', name).replace("PRICE", "3"))
        code, _, err = run(capsys, "value", str(path))
        assert code == 2
        assert err.startswith("error:") and "name must be a string" in err

    @pytest.mark.parametrize(
        "price",
        [HUGE, f'"{HUGE}/3"', f'"3/{HUGE}"'],
        ids=["int", "numerator", "denominator"],
    )
    def test_huge_number_in_instance(self, capsys, tmp_path, price):
        path = tmp_path / "instance.json"
        path.write_text(SMALL_INSTANCE.replace("PRICE", price))
        for argv in (("value",), ("allocate", "--method", "shapley")):
            code, out, err = run(capsys, argv[0], str(path), *argv[1:])
            assert code == 2
            assert out == ""
            assert err.startswith("error:") and "too long" in err

    @pytest.mark.parametrize(
        "share",
        [HUGE, f'"{HUGE}"', f'"1/{HUGE}"'],
        ids=["int", "string", "denominator"],
    )
    def test_huge_number_in_allocation(self, capsys, tmp_path, share):
        instance = tmp_path / "instance.json"
        instance.write_text(SMALL_INSTANCE.replace("PRICE", "3"))
        for doc in ('{"allocation": {"a": SHARE, "b": 0}}', "[SHARE, 0]"):
            alloc = tmp_path / "alloc.json"
            alloc.write_text(doc.replace("SHARE", share))
            code, out, err = run(capsys, "check", str(instance), str(alloc))
            assert code == 2
            assert out == ""
            assert err.startswith("error:") and "too long" in err


    @pytest.mark.parametrize("flags", [(), ("--exact",)], ids=["decimal", "exact"])
    def test_report_value_past_the_digit_limit(self, capsys, tmp_path, flags):
        # each number reads, but v(N) = (price - 1) * (demand + 1) has
        # about 6000 digits
        big = "7" * 3000
        path = tmp_path / "instance.json"
        path.write_text(
            SMALL_INSTANCE.replace("PRICE", big).replace("[[1], [1]]", f"[[{big}], [1]]")
        )
        code, out, err = run(capsys, "value", str(path), *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "digits" in err
        alloc = tmp_path / "alloc.json"
        alloc.write_text("[0, 0]")
        code, out, err = run(capsys, "check", str(path), str(alloc), *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "digits" in err

    def test_precision_past_the_digit_limit(self, capsys):
        code, out, err = run(
            capsys, "allocate", SM, "--method", "nucleolus", "--precision", "5000"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "precision" in err


class TestCheckCommand:
    def test_core_point_accepted(self, capsys, tmp_path):
        path = tmp_path / "alloc.json"
        path.write_text('{"allocation": {"A": 2, "B": 2, "C": 2}}')
        report = run_json(capsys, "check", MM, str(path))
        assert report["in_core"] is True

    def test_violation_reported(self, capsys, tmp_path):
        path = tmp_path / "alloc.json"
        path.write_text('{"allocation": {"A": 6, "B": 0, "C": 0}}')
        report = run_json(capsys, "check", MM, str(path))
        assert report["in_core"] is False
        assert report["violated"] == ["B", "C"]
        assert report["excess"]["exact"] == "-2"

    def test_single_market_path(self, capsys, tmp_path):
        path = tmp_path / "alloc.json"
        path.write_text('{"allocation": {"P1": "1/3", "P2": "1/3", "P3": "1/3"}}')
        report = run_json(capsys, "check", SM, str(path))
        assert report["in_core"] is True

    def test_efficiency_error(self, capsys, tmp_path):
        path = tmp_path / "alloc.json"
        path.write_text('{"allocation": {"A": 1, "B": 1, "C": 1}}')
        code, _, err = run(capsys, "check", MM, str(path))
        assert code == 2
        assert "efficiency" in err

    def test_player_mismatch(self, capsys, tmp_path):
        path = tmp_path / "alloc.json"
        path.write_text('{"allocation": {"A": 6, "B": 0}}')
        code, _, err = run(capsys, "check", MM, str(path))
        assert code == 2

    def test_list_form(self, capsys, tmp_path):
        path = tmp_path / "alloc.json"
        path.write_text('{"allocation": [2, 2, 2]}')
        report = run_json(capsys, "check", MM, str(path))
        assert report["in_core"] is True


@pytest.fixture
def value_calls(monkeypatch):
    """Count the coalition values the CLI computes: moves of a capacitated
    table's warm program (`WarmStart.move`), and the CLI's `value_general`
    calls."""
    calls = record_warm_moves(monkeypatch)
    real_general = cli_module.value_general

    def general(inst, coalition, *args, **kwargs):
        calls.append(coalition.mask)
        return real_general(inst, coalition, *args, **kwargs)

    monkeypatch.setattr(cli_module, "value_general", general)
    return calls


def _write(tmp_path, doc):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestOracleCalls:
    CAPACITATED = {
        "players": ["a", "b", "c", "d", "e"],
        "markets": [{"name": "m1", "price": 9}, {"name": "m2", "price": 7}],
        "cost": [[1, 2], [3, 1], [2, 4], [5, 2], [4, 3]],
        "demand": [[2, 1], [1, 3], [2, 2], [0, 1], [3, 0]],
        "capacity": [5, 4, 6, 2, 3],
    }

    @pytest.mark.parametrize("method", ["nucleolus", "shapley"])
    def test_one_value_per_coalition(self, capsys, tmp_path, value_calls, method):
        path = _write(tmp_path, self.CAPACITATED)
        report = run_json(capsys, "allocate", path, "--method", method, "--oracle")
        assert report["core"] is not None
        assert len(value_calls) == 2**5 - 1
        assert len(set(value_calls)) == 2**5 - 1

    def test_check_reads_v_of_n_from_its_one_table(self, capsys, tmp_path, value_calls,
                                                   monkeypatch):
        builds = []
        real = game_module.WarmStart

        def counted(lp):
            builds.append(lp)
            return real(lp)

        monkeypatch.setattr(game_module, "WarmStart", counted)
        path = _write(tmp_path, self.CAPACITATED)
        report = run_json(capsys, "allocate", path, "--method", "nucleolus", "--oracle")
        allocation = tmp_path / "allocation.json"
        allocation.write_text(json.dumps(
            {"allocation": {e["player"]: e["exact"] for e in report["allocation"]}}))
        del builds[:], value_calls[:]
        assert run_json(capsys, "check", path, str(allocation))["in_core"] is True
        assert len(builds) == 1
        assert sorted(value_calls) == list(range(1, 2**5))

    def test_check_past_the_limit_reports_inefficiency_first(self, capsys, tmp_path):
        n = ENUMERATION_LIMIT + 1
        path = _write(tmp_path, {
            "players": [f"p{i}" for i in range(n)],
            "markets": [{"name": "m", "price": 2}],
            "cost": [[1]] * n,
            "demand": [[1]] * n,
            "capacity": [1] * n,
        })
        allocation = tmp_path / "allocation.json"
        allocation.write_text(json.dumps({"allocation": [2] * n}))
        assert run(capsys, "check", path, str(allocation)) == (2, "", (
            f"error: allocation sums to {2 * n} but the grand coalition is worth {n}; "
            "core membership needs exact efficiency\n"))
        allocation.write_text(json.dumps({"allocation": [1] * n}))
        assert run(capsys, "check", path, str(allocation)) == (3, "", (
            f"error: core enumeration is limited to {ENUMERATION_LIMIT} players, got {n}\n"))

    def test_uncapacitated_check_reports_inefficiency_before_any_table(
            self, capsys, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("a coalition table was built")

        monkeypatch.setattr(cli_module, "coalition_table", refuse)
        monkeypatch.setattr(game_module, "coalition_table", refuse)
        allocation = tmp_path / "allocation.json"
        allocation.write_text('{"allocation": {"A": 1, "B": 1, "C": 1}}')
        assert run(capsys, "check", MM, str(allocation)) == (2, "", (
            "error: allocation sums to 3 but the grand coalition is worth 6; "
            "core membership needs exact efficiency\n"))

    @pytest.mark.parametrize("method, enumerations", [("nucleolus", 0), ("shapley", 0)])
    def test_core_flag_enumerates_only_without_a_route_verdict(
        self, capsys, tmp_path, monkeypatch, method, enumerations
    ):
        # both brute-force routes decide their own core flag on the table
        # they already hold: the nucleolus from the least-core value,
        # Shapley from every proper excess
        calls = []
        real = cli_module.core_check

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli_module, "core_check", counted)
        path = _write(tmp_path, self.CAPACITATED)
        report = run_json(capsys, "allocate", path, "--method", method, "--oracle")
        assert len(calls) == enumerations
        monkeypatch.undo()
        inst = normalize(parse_instance(path))
        phi = [F(e["exact"]) for e in report["allocation"]]
        assert report["core"] is core_check(cold_oracle(inst), phi, inst.n).in_core
        if method == "nucleolus":
            assert report["core"] is True

    def test_single_market_shapley_values_no_coalition(self, capsys, tmp_path, value_calls):
        n = 16
        doc = {
            "players": [f"p{i}" for i in range(n)],
            "markets": [{"name": "m", "price": 50}],
            "cost": [[10 + 3 * i] for i in range(n)],
            "demand": [[1 + i % 4] for i in range(n)],
            "capacity": ["inf"] * n,
        }
        report = run_json(capsys, "allocate", _write(tmp_path, doc), "--method", "shapley")
        assert report["core"] in (True, False)
        assert value_calls == []


class TestCoreFlag:
    def test_single_market_flag_matches_enumeration(self):
        rng = random.Random(606)
        verdicts = set()
        for _ in range(150):
            n = rng.randint(1, 7)
            inst = random_uncapacitated(rng, n, 1)
            if sum(inst.demand[i][0] for i in range(n)) == 0:
                continue
            game = to_single_market(inst, 0)
            total = game.alpha[0] * game.scale
            if rng.random() < 0.5:  # near the proportional split, often in the core
                x = [
                    game.alpha[0] * inst.demand[i][0] + F(rng.randint(-1, 1), rng.randint(2, 6))
                    for i in range(n - 1)
                ]
            else:
                x = [F(rng.randint(-2, 9), rng.randint(1, 3)) for _ in range(n - 1)]
            x.append(total - sum(x))
            alloc = Allocation(tuple(x), total)
            expected = core_check(inst, x, n)
            assert cli_module._core_flag(inst, game, alloc) == expected.in_core
            result = cli_module._core_result(inst, game, x)
            assert result.in_core == expected.in_core
            if not result.in_core:
                assert result.excess == expected.excess
                members = result.violated.members()
                excess = sum(x[p - 1] for p in members) - value_general(inst, result.violated)
                assert excess == result.excess
            verdicts.add(expected.in_core)
        assert verdicts == {True, False}


class TestHumanReports:
    """The plain-text reports, line for line."""

    def test_value_with_plan(self, capsys):
        code, out, err = run(capsys, "value", CAP, "--coalition", "all", "--plan")
        assert (code, err) == (0, "")
        assert out == (
            "coalition: A, B, C, D\n"
            "value: 44 (= 44.000000)\n"
            "plan A: M1 <- 4\n"
            "plan B: M2 <- 3\n"
            "plan C: M2 <- 3\n"
            "plan D: M1 <- 2\n"
        )

    @pytest.mark.parametrize(
        "method, expected",
        [
            ("nucleolus", "in core: yes\n"),
            ("shapley", "in core: NO\nviolated coalition: A, C\nexcess: -1/3 (= -0.333333)\n"),
        ],
    )
    def test_check_in_and_out_of_the_core(self, capsys, tmp_path, method, expected):
        report = run_json(capsys, "allocate", CAP, "--method", method, "--oracle")
        path = tmp_path / "alloc.json"
        path.write_text(json.dumps([e["exact"] for e in report["allocation"]]))
        assert run(capsys, "check", CAP, str(path)) == (0, expected, "")

    def test_trace_rounds(self, capsys, tmp_path):
        path = _write(tmp_path, {
            "players": ["a", "b", "c", "d"],
            "markets": [{"name": "m", "price": 10}],
            "cost": [[1], [3], [6], [8]],
            "demand": [[1], [2], [3], [2]],
            "capacity": ["inf"] * 4,
        })
        assert run(capsys, "allocate", path, "--method", "nucleolus", "--trace", "--exact") == (
            0,
            "method: nucleolus (primal-dual)\n"
            "v(N): 72\n"
            "core: yes\n"
            "  a  18\n"
            "  b  16\n"
            "  c  23\n"
            "  d  15\n"
            "round 1: step 1/4, level 1/4, fixed {b}, set {b}\n"
            "round 2: step 1/8, level 3/8, fixed {b,d}, set {b,d}\n"
            "round 3: step 1/8, level 1/2, fixed {b,c}, set {b,c,d}\n",
            "",
        )

    def test_core_not_checked_past_the_enumeration_limit(self, capsys, tmp_path):
        n = ENUMERATION_LIMIT + 1
        path = _write(tmp_path, {
            "players": [f"p{i}" for i in range(n)],
            "markets": [{"name": "m1", "price": 9}, {"name": "m2", "price": 7}],
            "cost": [[i % 5, i % 3] for i in range(n)],
            "demand": [[1, i % 2] for i in range(n)],
            "capacity": ["inf"] * n,
        })
        code, out, err = run(capsys, "allocate", path, "--method", "shapley")
        assert (code, err) == (0, "")
        assert out.splitlines()[:3] == [
            "method: shapley (per-market sum)",
            "v(N): 259 (= 259.000000)",  # 9 * 21 + 7 * 10
            "core: not checked",
        ]
        assert len(out.splitlines()) == 3 + n

    @pytest.mark.parametrize("method", ["sum-nucleoli", "core-point"])
    def test_decomposition_routes_refuse_capacities(self, capsys, method):
        assert run(capsys, "allocate", CAP, "--method", method) == (
            2,
            "",
            "error: market decomposition needs unlimited capacities; for finite "
            "capacities use --method nucleolus --oracle or --method shapley --oracle\n",
        )


# every command and method; `sum-nucleoli` and `core-point` refuse
# `--oracle` only after reading the file, as the other runs do
COMMANDS = (
    ("value", "--coalition", "all", "--plan"),
    ("allocate", "--method", "nucleolus", "--trace"),
    ("allocate", "--method", "nucleolus", "--oracle"),
    ("allocate", "--method", "shapley"),
    ("allocate", "--method", "shapley", "--oracle"),
    ("allocate", "--method", "sum-nucleoli"),
    ("allocate", "--method", "core-point", "--json-style"),
    ("check",),
)
# one `check` allocation per fixture, in the fixture's player order
ALLOCATIONS = {SM: '["1/3", "1/3", "1/3"]', MM: "[2, 2, 2]", CAP: '["63/4", "25/2", "41/4", "11/2"]'}


def _nodes(doc, path):
    """Every path below `path` into doc."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _nodes(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated_fixtures(draw):
    """A fixture and its text after one mutation: in half the examples a
    value replaced by an atom, else a key deleted or a row duplicated or
    dropped."""
    fixture = draw(st.sampled_from((SM, MM, CAP)))
    with open(fixture, encoding="utf-8") as fh:
        doc = json.load(fh)
    kind = draw(st.one_of(st.just("atom"), st.sampled_from(("delete", "duplicate", "drop"))))
    key = draw(st.sampled_from(sorted(doc)))  # each field equally often
    paths = [(key,), *_nodes(doc[key], (key,))]
    if kind != "atom":
        container = dict if kind == "delete" else list
        paths = [p for p in paths if isinstance(_at(doc, p[:-1]), container)]
    *where, key = draw(st.sampled_from(paths))
    parent = _at(doc, where)
    if kind == "atom":
        parent[key] = "ATOM"
    elif kind == "duplicate":
        parent.insert(key, parent[key])
    else:
        del parent[key]
    return fixture, json.dumps(doc).replace('"ATOM"', draw(st.sampled_from(ATOMS)))


class TestMutatedFixtures:
    """The CLI contract on damaged instance files: every command exits 0, 2,
    3 or 4, and nothing but argparse's SystemExit escapes `main`."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(mutated_fixtures())
    def test_every_command_exits_with_a_contract_code(self, tmp_path_factory, mutated):
        fixture, text = mutated
        folder = tmp_path_factory.mktemp("mutated")
        instance, allocation = folder / "instance.json", folder / "allocation.json"
        instance.write_text(text)
        allocation.write_text(ALLOCATIONS[fixture])
        for command, *flags in COMMANDS:
            argv = [command, str(instance), *([str(allocation)] if command == "check" else flags)]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse's own exit
                    code = exc.code
            assert code in (0, 2, 3, 4), (argv, code)
            if code:
                assert out.getvalue() == "" and err.getvalue(), (argv, code)


class TestParser:
    def test_two_calls_build_one_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        run(capsys, "value", MM)  # builds the parser unless an earlier test did
        before = len(built)
        report = "coalition: B, C\nvalue: 2 (= 2.000000)\n"
        assert run(capsys, "value", MM, "--coalition", "B,C") == (0, report, "")
        assert len(built) == before
