"""Instance and allocation documents: strict JSON with exact rationals.

Numbers are integer literals or "p/q" strings, both read by `rat`;
float literals are rejected so the exactness contract reaches the I/O
boundary.  Decimal strings produced for reports are renderings only and
never feed back into computation.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from typing import Sequence

from .errors import InputError
from .game import Instance
from .ratlp import rat


def _reject_float(text: str):
    raise InputError(
        f"float literal {text!r} rejected: write an integer or a 'p/q' string"
    )


def _number(value, where: str) -> Fraction:
    try:
        return rat(value)
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from None


def loads_instance(text: str) -> Instance:
    """Read an instance document; `Instance` checks the fields it holds."""
    try:
        doc = json.loads(text, parse_float=_reject_float, parse_int=rat)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed instance document: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError("instance document must be a JSON object")
    for key in ("players", "markets", "cost", "demand", "capacity"):
        if key not in doc:
            raise InputError(f"instance document is missing {key!r}")
    markets = doc["markets"]
    if not isinstance(markets, list):
        raise InputError("markets must be a list of {name, price} objects")
    for j, entry in enumerate(markets):
        if not isinstance(entry, dict) or "name" not in entry or "price" not in entry:
            raise InputError(f"markets[{j + 1}] must be an object with name and price")
    capacity = doc["capacity"]
    if isinstance(capacity, list):
        if None in capacity:
            raise InputError(f'capacity[{capacity.index(None) + 1}]: write "inf", not null')
        capacity = [None if q == "inf" else q for q in capacity]
    names = [entry["name"] for entry in markets]
    prices = [entry["price"] for entry in markets]
    return Instance(doc["players"], names, prices, doc["cost"], doc["demand"], capacity)


def parse_instance(path: str) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read instance file: {exc}") from None
    return loads_instance(text)


def _encode(value: Fraction):
    return int(value) if value.denominator == 1 else str(value)


def dumps_instance(inst: Instance) -> str:
    doc = {
        "players": list(inst.players),
        "markets": [
            {"name": name, "price": _encode(p)}
            for name, p in zip(inst.markets, inst.price)
        ],
        "cost": [[_encode(v) for v in row] for row in inst.cost],
        "demand": [[_encode(v) for v in row] for row in inst.demand],
        "capacity": ["inf" if q is None else _encode(q) for q in inst.capacity],
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_allocation(path: str, players: Sequence[str]) -> tuple[Fraction, ...]:
    """Read {"allocation": {...}} keyed by player name, or a plain list."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_float=_reject_float, parse_int=rat)
    except OSError as exc:
        raise InputError(f"cannot read allocation file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed allocation document: {exc}") from None
    if isinstance(doc, dict) and "allocation" in doc:
        doc = doc["allocation"]
    if isinstance(doc, dict):
        missing = [p for p in players if p not in doc]
        extra = [p for p in doc if p not in players]
        if missing or extra:
            raise InputError(
                f"allocation players do not match the instance "
                f"(missing {missing!r}, unknown {extra!r})"
            )
        return tuple(_number(doc[p], f"allocation[{p}]") for p in players)
    if isinstance(doc, list):
        if len(doc) != len(players):
            raise InputError(
                f"allocation lists {len(doc)} values for {len(players)} players"
            )
        return tuple(_number(v, f"allocation[{i + 1}]") for i, v in enumerate(doc))
    raise InputError("allocation document must be a mapping or a list")


def exact_string(value) -> str:
    """str() of an int or Fraction for a report.

    A number past the interpreter's int-to-string digit limit is an
    InputError, not a ValueError; the limit itself is left as it is.
    """
    try:
        return str(value)
    except ValueError:
        raise InputError(
            "a reported number has more digits than the interpreter's "
            f"limit of {sys.get_int_max_str_digits()}"
        ) from None


def decimal_string(value: Fraction, digits: int) -> str:
    """Exact half-up decimal rendering with a fixed digit count."""
    if digits < 0:
        raise InputError("precision must be nonnegative")
    limit = sys.get_int_max_str_digits()
    if limit and digits > limit:
        raise InputError(f"precision must be at most {limit}")
    sign = "-" if value < 0 else ""
    num, den = abs(value.numerator), value.denominator
    scaled = num * 10**digits
    q, r = divmod(scaled, den)
    if 2 * r >= den:
        q += 1
    text = exact_string(q).rjust(digits + 1, "0")
    if digits == 0:
        return sign + text
    return f"{sign}{text[:-digits]}.{text[-digits:]}"
