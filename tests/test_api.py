"""The public API of the package, pinned: a name that is added to or
removed from ``import subrings`` shows up here as a reviewed diff."""

import inspect

import subrings

PUBLIC_NAMES = [
    "BoundReport",
    "ClosureSystem",
    "CongruenceCondition",
    "HNFMatrix",
    "InterpolationMismatch",
    "LocalFactor",
    "PartialSum",
    "PolyP",
    "ResourceLimitError",
    "SandwichAudit",
    "Table1Row",
    "a_exponent",
    "area",
    "bound_b_exponent",
    "bound_c_exponent",
    "bound_h_exponent",
    "bound_report",
    "brute_force_subgroups",
    "c7",
    "cap_value",
    "clear_caches",
    "composition_count",
    "compositions",
    "count_by_diagonal",
    "count_irreducible",
    "count_solutions",
    "count_subgroups_of_order",
    "count_subrings",
    "divergence_line",
    "extract_conditions",
    "family_count",
    "family_matrices",
    "gaussian_binomial",
    "hnf_from_generators",
    "identity_in_span",
    "interpolate_count",
    "is_closed",
    "is_irreducible",
    "iter_paths",
    "local_coefficients",
    "max_degree_order_count",
    "minorant_divergence",
    "order_exponents",
    "partial_sum",
    "partitions_of",
    "path_area_identity_check",
    "path_from_composition",
    "recurrence_f",
    "sandwich_subring_audit",
    "scan_by_diagonal",
    "scan_subrings",
    "series_expand_rational",
    "stehling_count",
    "table1",
    "two_value_compositions",
]


def test_public_names():
    names = sorted(
        name for name, value in vars(subrings).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert names == PUBLIC_NAMES
