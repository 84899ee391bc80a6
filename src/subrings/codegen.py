"""Source text of the congruence solve's generated counters.

closure counts a large plan with Python written for it, and this module
writes that text.  The counter has one nested `for` loop per scanned
variable, each condition tested in the loop of its last variable by
Horner's rule, with its coefficients in that variable computed (and
reduced mod p^r) as soon as the outer variables they use are assigned.
It is cut into functions of a few loops each, and the text of a function
depends only on its shape: its loops, which of them have a period step,
and the factors of each check's nonzero terms.  The widths, periods,
repeat counts, moduli and reduced coefficients are its literals, bound
to its last parameters as their defaults when a solve builds the
function, so closure compiles each shape once.

The module is apart from closure for the parser's sake: where no
bytecode cache is written (PYTHONDONTWRITEBYTECODE=1), every process
compiles the package on import, and CPython's parser takes about
0.25 MiB more memory for a module of more than 4,096 tokens, which
closure.py would pass with this text in it.
"""

from __future__ import annotations


# Each generated function is compiled on its own, and the parser's memory
# grows with the text it reads, so one function holds at most this many
# loops, condition tests and period steps (one per loop whose period is
# below its width) and calls the next for the deeper loops; one loop with
# more tests than that makes a function of its own.  On the benchmark's
# congruence workload splitting took 0.3 MiB off the peak RSS, at no
# measurable cost in time.  With the literals as parameters, the largest
# compile there allocates about 215 KiB (tracemalloc), and 8 does not
# lower it.  10 also keeps the nesting far below CPython's limit of 20
# statically nested blocks.
_FUNCTION_SIZE = 10


def _functions(plan: tuple) -> list[tuple[tuple, tuple[int, ...]]]:
    """The plan cut into the functions of its counter, each as (shape,
    literals): the shape decides the function's text, and the literals
    are the values that the text names L0, L1, ...

    A shape is (start, last, depths): the function runs the loops over
    x<start>, x<start+1>, ..., and last says whether its loops are the
    innermost.  depths holds, for each of its loops, whether the period is
    below the width, and the conditions tested there, each as the factors
    of its nonzero reduced terms.  The literals are, loop by loop: the
    width; the period and repeat count where the period is below the
    width; then for each condition its modulus and its coefficients.
    _counter_source names them in the same order.
    """
    functions = []
    start, size, depths, literals = 0, 0, [], []
    for d, (width, period, checks) in enumerate(zip(plan.box, plan.periods, plan.checks)):
        stepped = period < width
        cost = 1 + len(checks) + stepped
        if depths and size + cost > _FUNCTION_SIZE:
            functions.append(((start, False, tuple(depths)), tuple(literals)))
            start, size, depths, literals = d, 0, [], []
        size += cost
        literals.append(width)
        if stepped:
            literals += (period, width // period - 1)
        for mod, terms in checks:
            literals.append(mod)
            literals += (coeff for coeff, _ in terms)
        shaped = tuple(tuple(factors for _, factors in terms) for _, terms in checks)
        depths.append((stepped, shaped))
    functions.append(((start, True, tuple(depths)), tuple(literals)))
    return functions


def _counter_source(shape: tuple) -> str:
    """Source of one function of the nested-loop counter.

    count<s>(x0, ..., x<s-1>, nodes, count, limit, L0, L1, ...) runs the
    loops over x<s>, x<s+1>, ... and returns the updated (nodes, count),
    calling overrun once nodes would pass limit; count0 is the whole
    count, and a function that is not the last calls the next for the
    deeper loops.  L0, L1, ... are the literals: they take their values
    as defaults, which the callers leave in place.  A condition whose
    last variable is x<d> is tested in the loop over x<d> by Horner's rule
    in x<d>; its coefficients of x<d>^k are computed as soon as the outer
    variables they use are assigned.  Every value tried costs one node.
    The text holds only the integer 1 and fixed names.

    Values of x<d> a period q apart have the same tests and subtrees.
    Where q is below the width w, the loop runs 0..q-1 as usual.  At
    x<d> == q, if the nodes that period spent, times w/q - 1, fit in what
    the budget has left, it charges them and adds as many times the
    period's count at once; otherwise it goes on one value at a time.
    Either way the nodes, count and any overrun are those of the full scan.
    """
    start, last, depths = shape
    stop = start + len(depths)
    # the literals' names, taken in the order _functions lists them
    params: list[str] = []

    def literal() -> str:
        params.append(f"L{len(params)}")
        return params[-1]

    width, period, repeats = {}, {}, {}
    tests: dict[int, list[str]] = {}
    # (depth whose loop body computes it, assignment)
    hoists: list[tuple[int, str]] = []
    for d, (stepped, checks) in enumerate(depths, start):
        width[d] = literal()
        if stepped:
            period[d], repeats[d] = literal(), literal()
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
    lines = [f"def count{start}({', '.join(outer + ['nodes', 'count', 'limit'] + params)}):"]
    pad = "    "
    # an assignment whose variables are all outer ones comes first
    lines += [pad + line for place, line in hoists if place < start]
    for d in range(start, stop - last):
        lines += _loop(d, width[d], period.get(d), repeats.get(d), tests[d], pad)
        pad += "    "
        lines += [pad + line for place, line in hoists if place == d]
    if not last:
        inner = ", ".join([f"x{i}" for i in range(stop)] + ["nodes", "count", "limit"])
        lines.append(f"{pad}nodes, count = count{stop}({inner})")
    else:
        # the last loop nests nothing, so it spends one node per value
        # tried: it tries as many as the budget has left, and if that is
        # short of its width the next value is the overrun.  When the
        # whole width fits, one period is tried and its count multiplied.
        d = stop - 1
        lines.append(f"{pad}width = limit - nodes")
        lines.append(f"{pad}if width > {width[d]}:")
        lines.append(f"{pad}    width = {width[d]}")
        lines.append(f"{pad}nodes += width")
        values = "width"
        if d in period:
            lines.append(f"{pad}k{d} = count")
            values = f"width if width < {width[d]} else {period[d]}"
        lines.append(f"{pad}for x{d} in range({values}):")
        lines += _tests(d, tests[d], pad + "    ")
        lines.append(f"{pad}    count += 1")
        lines.append(f"{pad}if width < {width[d]}:")
        lines.append(f"{pad}    overrun(nodes + 1, count)")
        if d in period:
            lines.append(f"{pad}count += (count - k{d}) * {repeats[d]}")
    lines.append("    return nodes, count")
    return "".join(f"{line}\n" for line in lines)


def _loop(d: int, width: str, period: str | None, repeats: str | None,
          tests: list[str], pad: str) -> list[str]:
    """The loop over x<d>, each value tried one node checked against the
    limit, and the tests inside it.  With a period below the width, the
    first period's nodes and count, taken from n<d> and k<d>, are repeated
    at once when they fit in the budget."""
    inner = pad + "    "
    lines = []
    if period is not None:
        lines.append(f"{pad}n{d}, k{d} = nodes, count")
    lines.append(f"{pad}for x{d} in range({width}):")
    if period is not None:
        lines += [
            f"{inner}if x{d} == {period} and (nodes - n{d}) * {repeats} <= limit - nodes:",
            f"{inner}    nodes, count = nodes + (nodes - n{d}) * {repeats},"
            f" count + (count - k{d}) * {repeats}",
            f"{inner}    break",
        ]
    lines.append(f"{inner}nodes += 1")
    lines.append(f"{inner}if nodes > limit:")
    lines.append(f"{inner}    overrun(nodes, count)")
    return lines + _tests(d, tests, inner)


def _tests(d: int, tests: list[str], pad: str) -> list[str]:
    """The tests of x<d>'s conditions, each skipping the value it fails."""
    lines = []
    for test in tests:
        lines.append(f"{pad}if {test}:")
        lines.append(f"{pad}    continue")
    return lines


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
