"""Exact-arithmetic toolkit for joints configurations of varieties.

Builds local charts at regular points, derivative operators and
priority-ordered vanishing-condition bases, balances per-joint handicaps,
and verifies the resulting counting inequalities exactly over prime
fields or the rationals.
"""

__version__ = "0.1.0"

from .balance import BalanceState, RootValue, compute_W
from .basis import (
    BasisLedger,
    Handicap,
    T_dimension,
    build_ledger,
    functional_rows,
)
from .config import (
    Family,
    JointsConfiguration,
    connected_components,
    detect_joints,
    generate,
    grid_line_composite,
    is_joint,
)
from .errors import JointslabError
from .field import DEFAULT_PRIME, FieldSpec
from .poly import (
    AffineMap,
    HasseOperator,
    Polynomial,
    format_poly,
    hasse_apply,
    parse_poly,
    taylor_shift,
    vanishing_order,
)
from .varieties import (
    Chart,
    VarietySpec,
    derivative_operator,
    dim_regular_functions,
    make_chart,
    tangent_space,
    well_defined_check,
)
from .verify import (
    BoundReport,
    bound_report,
    hasse_vanishing_witness,
    parameter_count_check,
    schwartz_zippel_mult,
    vanishing_rank_check,
)
