"""Exact counting of finite-index subrings of Z^n.

Core entry points: count_subrings / count_irreducible / count_by_diagonal
(exact counts by the congruence solve and the recurrence), scan_subrings /
scan_by_diagonal (the HNF scan oracles), extract_conditions /
count_solutions (symbolic closure congruences), stehling_count and the sandwich audit (subgroup
side), family counts over lattice paths, the closed-form bound exponents,
and the n <= 4 local zeta factors.
"""

from .bounds import (
    BoundReport,
    a_exponent,
    bound_b_exponent,
    bound_c_exponent,
    bound_report,
    c7,
    cap_value,
    divergence_line,
    minorant_divergence,
    order_exponents,
)
from .closure import ClosureSystem, CongruenceCondition, count_solutions, extract_conditions
from .counting import (
    InterpolationMismatch,
    ResourceLimitError,
    clear_caches,
    count_by_diagonal,
    count_irreducible,
    count_subrings,
    interpolate_count,
    recurrence_f,
    scan_by_diagonal,
    scan_subrings,
)
from .hnf import (
    HNFMatrix,
    hnf_from_generators,
    identity_in_span,
    is_closed,
    is_irreducible,
)
from .partitions import composition_count, compositions, partitions_of
from .paths import (
    area,
    family_count,
    family_matrices,
    iter_paths,
    path_area_identity_check,
    path_from_composition,
    two_value_compositions,
)
from .polyp import PolyP, gaussian_binomial, series_expand_rational
from .subgroups import (
    SandwichAudit,
    bound_h_exponent,
    brute_force_subgroups,
    count_subgroups_of_order,
    max_degree_order_count,
    sandwich_subring_audit,
    stehling_count,
)
from .zeta import LocalFactor, PartialSum, Table1Row, local_coefficients, partial_sum, table1

__version__ = "0.1.0"
