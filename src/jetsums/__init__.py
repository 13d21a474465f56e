"""Exact arithmetic for point counts and exponential sums on jet spaces of
maps from the projective line to a hypersurface, plus a rational-inequality
certifier for the associated bound analysis."""

__version__ = "0.1.0"

from .arith import Cyclo, Interval, magnitude  # noqa: F401
from .sections import (  # noqa: F401
    BudgetExceeded,
    DivisorP1,
    DualFunctional,
)
from .forms import (  # noqa: F401
    SymmetricForm,
    conic_form,
    fermat_form,
    make_form,
    named_form,
    smoothness_check,
)
from .counting import (  # noqa: F401
    CountRecord,
    count_jet_multilinear,
    count_psi_zero_sections,
    count_solutions,
    count_tangent_pairs,
    lw_trend,
)
from .expsums import (  # noqa: F401
    ArcLabel,
    Report,
    check_major_identity,
    check_orthogonality,
    check_shrink,
    check_weyl,
    classify_arc,
    exp_sum,
    exp_sum_pair,
    n_count,
    t_vanishing_report,
)
from .bounds import (  # noqa: F401
    Certificate,
    calibration_report,
    certify,
    degree_floor,
    expected_dims,
    genus_slack,
    pair_bound,
    shrink_exponent,
    single_bound,
    thresholds,
)
