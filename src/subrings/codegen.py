"""The congruence solve's generated counters: their text, their compiled
code and their runs.

closure counts a large plan's survivors with Python written for it, and
this module writes that text, compiles it and runs it.  The counter is a
compiled copy of closure._count_plan: one nested `for` loop per scanned
variable, over one period of it, each condition tested in the loop of
its last variable by Horner's rule, with its coefficients in that
variable computed (and reduced mod p^r) as soon as the outer variables
they use are assigned, and each depth's values that pass every test
tallied.  It holds no node count and no budget: closure derives the
nodes from the tallies.  It can start at any depth, with the outer
variables as arguments, and is cut into functions of a few loops each.
The text of a function depends only on its shape: its loops and the
factors of each check's nonzero terms.  The periods, moduli and reduced
coefficients are its literals, bound to its last parameters as their
defaults when a run builds the function, so each shape is compiled
once.

The module is apart from closure for the parser's sake: where no
bytecode cache is written (PYTHONDONTWRITEBYTECODE=1), every process
compiles the package on import, and the parser's peak memory grows with
the module it reads, by about 0.25 MiB past 4,096 tokens.  Below that it
still grows: with this module's runner and cache in it, closure.py had
3,839 tokens instead of 3,610, and the package's import peaked 64 KiB
higher (tracemalloc).
"""

from __future__ import annotations

import functools
from types import CodeType, FunctionType


# Each generated function is compiled on its own, and the parser's memory
# grows with the text it reads, so one function holds at most this many
# loops and condition tests and calls the next for the deeper loops; one
# loop with more tests than that makes a function of its own.  On the
# benchmark's congruence workload splitting took 0.3 MiB off the peak RSS,
# at no measurable cost in time.  With the literals as parameters, the largest
# compile there allocates about 215 KiB (tracemalloc), and 8 does not
# lower it.  10 also keeps the nesting far below CPython's limit of 20
# statically nested blocks.
_FUNCTION_SIZE = 10


def _count_compiled(plan: tuple, d: int, xs: list, survivors: list) -> None:
    """_count_plan run by the generated counter of plan's loops from
    depth d on."""
    # a fresh namespace per run: the count<s> functions call each other
    # through it.  Each is built from its shape's compiled code with this
    # plan's literals as the defaults of its last parameters.  (Patched
    # into copies of the compiled constants instead, they would spare each
    # call of a deeper function copying them, but those copies raised the
    # congruence workload's peak RSS by 0.13 MiB.)  The functions' globals
    # are the namespace itself, a reference cycle that the finally clause
    # breaks, so a solve leaves nothing for the cycle collector.
    namespace = {"__builtins__": {}, "range": range}
    try:
        for shape, literals in _functions(plan, d):
            namespace[f"count{shape[0]}"] = FunctionType(
                _compiled_function(shape), namespace, None, literals)
        namespace[f"count{d}"](*xs[:d], survivors)
    finally:
        namespace.clear()


def _functions(plan: tuple, start: int = 0) -> list[tuple[tuple, tuple[int, ...]]]:
    """The loops of plan from depth start on, cut into the functions of
    their counter, each as (shape, literals): the shape decides the
    function's text, and the literals are the values that the text names
    L0, L1, ...

    A shape is (start, last, depths): the function runs the loops over
    x<start>, x<start+1>, ..., and last says whether its loops are the
    innermost.  depths holds, for each of its loops, the conditions tested
    there, each as the factors of its nonzero reduced terms.  The literals
    are, loop by loop: the period; then for each condition its modulus and
    its coefficients.  _counter_source names them in the same order.
    """
    functions = []
    size, depths, literals = 0, [], []
    for d in range(start, len(plan.box)):
        checks = plan.checks[d]
        if depths and size + 1 + len(checks) > _FUNCTION_SIZE:
            functions.append(((start, False, tuple(depths)), tuple(literals)))
            start, size, depths, literals = d, 0, [], []
        size += 1 + len(checks)
        literals.append(plan.periods[d])
        for mod, terms in checks:
            literals.append(mod)
            literals += (coeff for coeff, _ in terms)
        depths.append(tuple(tuple(factors for _, factors in terms) for _, terms in checks))
    functions.append(((start, True, tuple(depths)), tuple(literals)))
    return functions


# How many compiled functions one process keeps, least recently used
# dropped first.  A function depends only on its shape, which recurs across
# diagonals of the same structure and across primes.  The size holds a
# whole working set: with every plan compiled, a round of the benchmark's
# congruence workload (seeds 1-5, 287 solves) ran 503 functions of 131
# distinct shapes, interleaving five composition families, and the shapes
# of g over (5,7), (6,8), (6,9), (7,9), (8,10), (7,8), (5,9), (4,10) and
# (6,7) at p = 2, 3, 5, 7 and 11 numbered 159.  With 256 entries a round
# compiled each of its 131 shapes once, where 48 entries evicted shapes
# that came back and compiled 196-216.  With the small loops
# interpreted, only the loops above _INTERPRETED_VALUES reach the cache:
# a fresh congruence round (seed 9, rounds 1-5) runs 31 functions of 22
# shapes, and a scan round 7-48 functions of 7-32 shapes.  An entry held
# about 1.75 KiB of code and 1.25 KiB of shape key (tracemalloc), so a
# full cache about 0.75 MiB; the round's peak RSS rose by about 0.12 MiB
# (0.6 %).
_FUNCTION_CACHE_SIZE = 256


@functools.lru_cache(maxsize=_FUNCTION_CACHE_SIZE)
def _compiled_function(shape: tuple) -> CodeType:
    """The code of count<start> for this shape.  The literals are not in
    the text, so every prime that gives one shape shares one compile."""
    module = compile(_counter_source(shape), "<counter>", "exec")
    return next(c for c in module.co_consts if isinstance(c, CodeType))


def _counter_source(shape: tuple) -> str:
    """Source of one function of the nested-loop counter.

    count<s>(x0, ..., x<s-1>, S, L0, L1, ...) runs the loops over x<s>,
    x<s+1>, ..., each over one period of its variable, and adds to S[d]
    the values of x<d> that pass every check up to depth d; a function
    that is not the last calls the next for the deeper loops.  L0, L1, ...
    are the literals: they take their values as defaults, which the
    callers leave in place.  A condition whose last variable is x<d> is
    tested in the loop over x<d> by Horner's rule in x<d>; its
    coefficients of x<d>^k are computed as soon as the outer variables
    they use are assigned.  The text holds only digits and fixed names.
    """
    start, last, depths = shape
    stop = start + len(depths)
    # the literals' names, taken in the order _functions lists them
    params: list[str] = []

    def literal() -> str:
        params.append(f"L{len(params)}")
        return params[-1]

    period = {}
    tests: dict[int, list[str]] = {}
    # (depth whose loop body computes it, assignment)
    hoists: list[tuple[int, str]] = []
    for d, checks in enumerate(depths, start):
        period[d] = literal()
        tests[d] = []
        for terms in checks:
            mod = literal()
            by_power: dict[int, list] = {}
            for factors in terms:
                coeff = literal()
                rest = [vi for vi in factors if vi != d]
                by_power.setdefault(len(factors) - len(rest), []).append((coeff, rest))
            coeffs: list[str | None] = []
            for k in range(max(by_power, default=-1) + 1):
                parts = by_power.get(k, [])
                const = " + ".join(c for c, rest in parts if not rest)
                body = ["*".join([c, *(f"x{vi}" for vi in rest)]) for c, rest in parts if rest]
                if not body:
                    coeffs.append(const or None)
                    continue
                if const:
                    body.append(const)
                name = f"c{len(hoists)}"
                place = max(vi for _, rest in parts for vi in rest)
                hoists.append((place, f"{name} = ({' + '.join(body)}) % {mod}"))
                coeffs.append(name)
            horner = _horner(coeffs, f"x{d}")
            if horner is not None:
                tests[d].append(f"({horner}) % {mod}")

    outer = [f"x{i}" for i in range(start)]
    lines = [f"def count{start}({', '.join(outer + ['S'] + params)}):"]
    pad = "    "
    # k<d> counts the values of x<d> that pass; an assignment whose
    # variables are all outer ones comes first
    lines += [f"{pad}k{d} = 0" for d in range(start, stop)]
    lines += [pad + line for place, line in hoists if place < start]
    for d in range(start, stop):
        lines.append(f"{pad}for x{d} in range({period[d]}):")
        pad += "    "
        for test in tests[d]:
            lines += [f"{pad}if {test}:", f"{pad}    continue"]
        lines.append(f"{pad}k{d} += 1")
        lines += [pad + line for place, line in hoists if place == d]
    if not last:
        lines.append(f"{pad}count{stop}({', '.join([f'x{i}' for i in range(stop)] + ['S'])})")
    lines += [f"    S[{d}] += k{d}" for d in range(start, stop)]
    return "".join(f"{line}\n" for line in lines)


def _horner(coeffs: list[str | None], x: str) -> str | None:
    """coeffs[0] + x*(coeffs[1] + x*(...)), skipping the zero (None)
    coefficients; None when all are zero."""
    expr = None
    for c in reversed(coeffs):
        if expr is not None:
            expr = f"{x}*({expr})"
            if c is not None:
                expr = f"{c} + {expr}"
        else:
            expr = c
    return expr
