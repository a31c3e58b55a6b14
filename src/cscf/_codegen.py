"""Straight-line code: one function per length, written from a per-coordinate template.

The firefly moves, the SCA step and the separable objectives do one piece of
work per coordinate.  Written out once per coordinate, it runs with no
iterator, comprehension frame or store per coordinate.  Each caller compiles
at the first call of a length and keeps the function for that length.
"""

import math

# Clamp v into [lo{i}, hi{i}] as w{i}, as np.maximum then np.minimum do: a NaN
# passes on and a tie returns the bound.
CLAMP = "; w{i} = hi{i} if (c := lo{i} if v <= lo{i} else v) >= hi{i} else c"


def straight_line(name, n, unpack, params, step, result, *terms):
    """``def name(<unpack>, <params>)`` for ``n`` coordinates, compiled with ``math``'s names.

    It unpacks each sequence named in ``unpack`` once (``x`` into ``x0, x1, ...``),
    writes ``step`` for each coordinate ``{i}`` and returns ``result``, in which
    ``{n}`` is the length and ``{0}``, ``{1}``, ... are ``terms[0]``, ``terms[1]``, ...
    written for each ``{i}`` (``{k}`` is ``i + 1``), a comma after each: ``({0})`` is
    a tuple and ``[{0}]`` a list at every length.
    """
    def each(term):
        return "".join(term.format(i=i, k=i + 1) + ", " for i in range(n))
    lines = [f"def {name}({', '.join(unpack.split() + params.split())}):",
             *(f"    [{each(v + '{i}')}] = {v}" for v in unpack.split()),
             *(f"    {step.format(i=i)}" for i in range(n) if step),
             f"    return {result.format(*map(each, terms), n=n)}"]
    scope = {**vars(math), "__name__": __name__}
    exec(compile("\n".join(lines), f"<cscf {name} n={n}>", "exec"), scope)
    return scope[name]
