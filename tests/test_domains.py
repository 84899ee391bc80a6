"""One table of the public API's argument domains, and the tests that walk
it.

DOMAINS gives every public callable a call inside its domain, and each
argument's domain kind.  test_bad_value_is_refused_by_name substitutes
the bad values of the kind, one argument at a time, into that call: each
must raise a ValueError whose message names the argument.  The coverage
tests keep the table in step with the API: every public name is in it or
is exempt with a reason, and every parameter of a listed callable has a
kind.
"""

import inspect
import re
from collections.abc import Iterator
from fractions import Fraction

import pytest

import subrings
from subrings import HNFMatrix, extract_conditions

from test_api import PUBLIC_NAMES

NAN = float("nan")
# what an int argument is refused for: a bool, below its least value, a
# float, a NaN, a str, None and a Fraction
NOT_INTS = (True, 1.5, NAN, "2", None, Fraction(3, 2))
BAD_INTS = NOT_INTS + (-1,)
# a scalar where a sequence belongs
SCALARS = (True, -1, 1.5, NAN, None, Fraction(3, 2))

BAD = {
    "rank": BAD_INTS,
    "exponent": BAD_INTS,
    # any int: a negative one is in the domain
    "integer": NOT_INTS,
    "prime": BAD_INTS,
    "real": (True, NAN, "2", None),
    "node budget": BAD_INTS,
    "composition": SCALARS + tuple((x, 1) for x in BAD_INTS + (0,)),
    "partition": SCALARS + tuple((2, x) for x in BAD_INTS + (0,)),
    "prime list": SCALARS + tuple((2, 3, x) for x in BAD_INTS),
    # generator columns: a scalar for the list or for one column, or an
    # entry that is not an int
    "vectors": SCALARS + tuple(((2, 0), x) for x in SCALARS)
    + tuple(((2, x), (0, 2)) for x in NOT_INTS),
    "steps": SCALARS + tuple(("N", x) for x in BAD_INTS),
    "coefficients": SCALARS + tuple((1, x) for x in NOT_INTS),
    # denominator factors (c, k): a scalar for the list or a factor, a
    # coefficient c that is not an int, an exponent k below 1
    "factors": SCALARS + tuple(((1, 1), x) for x in SCALARS)
    + tuple(((x, 1),) for x in NOT_INTS) + tuple(((1, x),) for x in BAD_INTS + (0,)),
    "matrix": SCALARS + ("2",),
    "system": SCALARS + ("2",),
    "substitutions": SCALARS + ("2",),
    # a truth value: whatever is given is taken for its truth
    "flag": (),
}

# how a refusal names an argument of these kinds, as a regular
# expression: partitions.composition and partitions.partition check a
# shape for every caller and name it by its kind, and a denominator
# factor's parts are named c and k, as in series_expand_rational's
# docstring
NAMED_AS = {
    "composition": "composition",
    "partition": "partition",
    "factors": "denominator_factors|c|k",
}

_MATRIX = HNFMatrix.from_rows(2, [[2, 1], [0, 1]])

# callable: (arguments inside the domain, {argument: kind}); arguments
# are passed by keyword, so the table also pins their names
DOMAINS = {
    "a_exponent": ({"n": 3}, {"n": "rank"}),
    "area": ({"steps": ("N", "E")}, {"steps": "steps"}),
    "bound_b_exponent": (
        {"n": 3, "e": 4, "with_argmax": False},
        {"n": "rank", "e": "exponent", "with_argmax": "flag"},
    ),
    "bound_c_exponent": (
        {"n": 3, "e": 4, "with_argmax": False},
        {"n": "rank", "e": "exponent", "with_argmax": "flag"},
    ),
    "bound_h_exponent": (
        {"n": 3, "e": 4, "with_argmax": False},
        {"n": "rank", "e": "exponent", "with_argmax": "flag"},
    ),
    "bound_report": ({"n": 3, "e": 4}, {"n": "rank", "e": "exponent"}),
    "brute_force_subgroups": (
        {"n": 3, "t": 1, "k": 1, "p": 2, "node_budget": 100},
        {"n": "rank", "t": "exponent", "k": "exponent", "p": "prime",
         "node_budget": "node budget"},
    ),
    "c7": ({"n": 3, "with_argmax": False}, {"n": "rank", "with_argmax": "flag"}),
    "cap_value": ({"n": 3, "e": 4}, {"n": "rank", "e": "exponent"}),
    "clear_caches": ({}, {}),
    "composition_count": ({"n": 3, "e": 4}, {"n": "rank", "e": "exponent"}),
    "compositions": ({"n": 3, "e": 4}, {"n": "rank", "e": "exponent"}),
    "count_by_diagonal": (
        {"alpha": (2, 1), "p": 2, "node_budget": 100},
        {"alpha": "composition", "p": "prime", "node_budget": "node budget"},
    ),
    "count_irreducible": (
        {"n": 3, "e": 3, "p": 2, "node_budget": 100},
        {"n": "rank", "e": "exponent", "p": "prime", "node_budget": "node budget"},
    ),
    "count_solutions": (
        {"system": extract_conditions((2, 1)), "p": 2, "node_budget": 100},
        {"system": "system", "p": "prime", "node_budget": "node budget"},
    ),
    "count_subgroups_of_order": (
        {"n": 3, "t": 1, "k": 1},
        {"n": "rank", "t": "exponent", "k": "exponent"},
    ),
    "count_subrings": (
        {"n": 3, "e": 3, "p": 2, "node_budget": 100},
        {"n": "rank", "e": "exponent", "p": "prime", "node_budget": "node budget"},
    ),
    "divergence_line": ({"n": 3}, {"n": "rank"}),
    "extract_conditions": (
        {"alpha": (2, 1), "substitutions": {(1, 2): 0}},
        {"alpha": "composition", "substitutions": "substitutions"},
    ),
    "family_count": (
        {"alpha": (2, 1), "k": 2, "l": 1},
        {"alpha": "composition", "k": "exponent", "l": "exponent"},
    ),
    "family_matrices": (
        {"alpha": (2, 1), "k": 2, "l": 1, "p": 2},
        {"alpha": "composition", "k": "exponent", "l": "exponent", "p": "prime"},
    ),
    "gaussian_binomial": ({"m": 4, "r": 2}, {"m": "exponent", "r": "exponent"}),
    "hnf_from_generators": (
        {"prime": 2, "vectors": [(2, 0), (0, 2)]},
        {"prime": "prime", "vectors": "vectors"},
    ),
    "identity_in_span": ({"A": _MATRIX}, {"A": "matrix"}),
    "interpolate_count": (
        {"n": 2, "e": 2, "primes": (2, 3, 5), "degree_cap": 0, "irreducible": False,
         "node_budget": 100},
        {"n": "rank", "e": "exponent", "primes": "prime list", "degree_cap": "exponent",
         "irreducible": "flag", "node_budget": "node budget"},
    ),
    "is_closed": ({"A": _MATRIX}, {"A": "matrix"}),
    "is_irreducible": ({"A": _MATRIX}, {"A": "matrix"}),
    "iter_paths": ({"u": 1, "v": 1}, {"u": "exponent", "v": "exponent"}),
    "local_coefficients": ({"n": 3, "order": 2}, {"n": "rank", "order": "exponent"}),
    "max_degree_order_count": (
        {"n": 3, "t": 1, "k": 1},
        {"n": "rank", "t": "exponent", "k": "exponent"},
    ),
    "minorant_divergence": (
        {"d": 1, "n": 3, "s": 0.5},
        {"d": "exponent", "n": "rank", "s": "real"},
    ),
    "order_exponents": ({"n": 3}, {"n": "rank"}),
    "partial_sum": (
        {"n": 6, "p": 2, "s": 1.5, "E": 6, "d": 2},
        {"n": "rank", "p": "prime", "s": "real", "E": "exponent", "d": "exponent"},
    ),
    "partitions_of": (
        {"k": 3, "max_part": 2, "max_length": 2},
        {"k": "exponent", "max_part": "exponent", "max_length": "exponent"},
    ),
    "path_area_identity_check": (
        {"u": 1, "v": 1, "q": 2},
        {"u": "exponent", "v": "exponent", "q": "integer"},
    ),
    "path_from_composition": (
        {"alpha": (2, 1), "k": 2, "l": 1},
        {"alpha": "composition", "k": "exponent", "l": "exponent"},
    ),
    "recurrence_f": (
        {"n": 3, "e": 3, "p": 2, "node_budget": 100},
        {"n": "rank", "e": "exponent", "p": "prime", "node_budget": "node budget"},
    ),
    "sandwich_subring_audit": (
        {"n": 2, "m": 2, "node_budget": 100},
        {"n": "rank", "m": "exponent", "node_budget": "node budget"},
    ),
    "scan_by_diagonal": (
        {"alpha": (2, 1), "p": 2, "node_budget": 100, "pruned": True},
        {"alpha": "composition", "p": "prime", "node_budget": "node budget", "pruned": "flag"},
    ),
    "scan_subrings": (
        {"n": 3, "e": 2, "p": 2, "node_budget": 100, "pruned": True},
        {"n": "rank", "e": "exponent", "p": "prime", "node_budget": "node budget",
         "pruned": "flag"},
    ),
    "series_expand_rational": (
        {"numerator": (1,), "denominator_factors": ((1, 1),), "order": 3},
        {"numerator": "coefficients", "denominator_factors": "factors", "order": "exponent"},
    ),
    "stehling_count": ({"lam": (2, 1), "nu": (1,)}, {"lam": "partition", "nu": "partition"}),
    "table1": ({}, {}),
    "two_value_compositions": (
        {"n": 3, "d": 1, "k": 2, "l": 1},
        {"n": "rank", "d": "exponent", "k": "exponent", "l": "exponent"},
    ),
}

# public names that take no argument domain of their own
EXEMPT = {
    "BoundReport": "a result record that bound_report builds",
    "ClosureSystem": "a result record that extract_conditions builds",
    "CongruenceCondition": "a term of a ClosureSystem, built by extract_conditions",
    "HNFMatrix": "a class whose constructor checks its own fields (tests/test_hnf.py)",
    "InterpolationMismatch": "a result record that interpolate_count builds",
    "LocalFactor": "a constant table entry of the n <= 4 closed forms",
    "PartialSum": "a result record that partial_sum builds",
    "PolyP": "a value class of exact polynomial arithmetic",
    "ResourceLimitError": "an exception class",
    "SandwichAudit": "a result record that sandwich_subring_audit builds",
    "Table1Row": "a result record that table1 builds",
}


def _call(name, kwargs):
    """Call the public callable, drawing one item where it returns an
    iterator: a generator function checks its arguments at the first
    item."""
    out = getattr(subrings, name)(**kwargs)
    if isinstance(out, Iterator):
        next(out, None)
    return out


def _bad_values(name, arg, kind):
    """The bad values of kind for arg.  None is how an optional argument
    is left out, so it is not bad there."""
    default = inspect.signature(getattr(subrings, name)).parameters[arg].default
    return [value for value in BAD[kind] if value is not None or default is not None]


@pytest.mark.parametrize(
    "name, arg",
    [(name, arg) for name, (_, kinds) in sorted(DOMAINS.items()) for arg in kinds
     if kinds[arg] != "flag"],
)
def test_bad_value_is_refused_by_name(name, arg):
    good, kinds = DOMAINS[name]
    named = re.compile(rf"(?<!\w)({NAMED_AS.get(kinds[arg], re.escape(arg))})(?!\w)")
    for value in _bad_values(name, arg, kinds[arg]):
        # any other exception fails the test as it stands
        try:
            _call(name, {**good, arg: value})
        except ValueError as err:
            assert named.search(str(err)), f"{name}({arg}={value!r}): {err}"
        else:
            pytest.fail(f"{name}({arg}={value!r}) was accepted")


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_table_calls_are_inside_the_domain(name):
    _call(name, DOMAINS[name][0])


def test_table_covers_every_public_name():
    assert not set(DOMAINS) & set(EXEMPT)
    assert sorted(set(DOMAINS) | set(EXEMPT)) == PUBLIC_NAMES
    for name in EXEMPT:
        assert inspect.isclass(getattr(subrings, name)), name


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_table_names_every_parameter(name):
    good, kinds = DOMAINS[name]
    params = list(inspect.signature(getattr(subrings, name)).parameters)
    assert list(kinds) == params
    assert list(good) == params

