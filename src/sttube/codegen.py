"""Source templates compiled into kernels.

The control law (``control``), the built-in plants' derivatives
(``plant``) and the closed loop's RK4 blocks (``sim``) are each written
once, as source templates that take only shape integers and name
prefixes, and compiled the first time a shape is seen into functions
with no loop over components.  Each kernel's source is registered in
``linecache`` under a name that gives its shape, so tracebacks, cProfile
and debuggers show its lines.
"""

from __future__ import annotations

import linecache


def names(prefix: str, count: int) -> str:
    """``"p0, p1, ..., "`` for prefix ``p``: the targets of an unpack, or
    in parentheses a tuple (a one-item tuple keeps its comma)."""
    return "".join(f"{prefix}{j}, " for j in range(count))


def indent(lines, depth: int = 1) -> list[str]:
    return [" " * depth + line for line in lines]


def compile_function(source: str, name: str, namespace: dict):
    """Compile ``source``, a single ``def``, under the file name ``name``
    with ``namespace`` as its globals, and return the function."""
    linecache.cache[name] = (len(source), None, source.splitlines(True), name)
    scope: dict = {}
    exec(compile(source, name, "exec"), namespace, scope)
    (function,) = scope.values()
    return function
