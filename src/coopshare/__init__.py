"""Exact profit-sharing engine for producers cooperating across markets."""

from .errors import (
    DegenerateMarketError,
    InputError,
    InternalError,
    SizeError,
    UnsupportedModeError,
)
from .files import (
    decimal_string,
    dumps_instance,
    loads_instance,
    parse_allocation,
    parse_instance,
)
from .game import (
    Allocation,
    Coalition,
    CoreCheck,
    Instance,
    NormalizedInstance,
    SingleMarketGame,
    core_check,
    min_excess,
    normalize,
    single_market,
    to_single_market,
    value_general,
    value_single_market,
)
from .multimarket import (
    MarketDecomposition,
    core_point,
    decompose,
    shapley_multimarket,
    sum_of_nucleoli,
)
from .nucleolus import (
    TraceStep,
    nucleolus_bruteforce,
    nucleolus_primal_dual,
    nucleolus_separation,
    separate,
    step_size,
)
from .ratlp import (
    LinearProgram,
    LpResult,
    linear_program,
    rat,
    solve_lp,
)
from .shapley import (
    marginal_contribution,
    shapley_bruteforce,
    shapley_single_market,
)

__all__ = [name for name in dir() if not name.startswith("_")]
