"""The compiled kernels find every global they read.

Some names are read only on failure paths (``_strict_failure``,
``_collapsed``, ``check_finite``, ``PlantStateError``), so a name missing
from a kernel's globals would otherwise surface only as a NameError in a
failing run.
"""

import ast
import builtins
import dis
import inspect

import pytest

from sttube import control, plant, sim


_SHAPES = {
    "omnidirectional 1x3": ("omnidirectional", 1, 3),
    "drone_chain 2x3": ("drone_chain", 2, 3),
    "custom 1x2": ("custom", 1, 2),
}
# Both forms of each block: unhooked (the strict law inline) and hooked
# (a ``control_input`` call per step, chosen while a wrapper is installed).
_FORMS = {
    f"{shape}{' hooked' if hooked else ''}": (*key, hooked)
    for shape, key in _SHAPES.items()
    for hooked in (False, True)
}


def _blocks():
    return {name: sim._compiled_block(*key) for name, key in _FORMS.items()}


KERNELS = {
    "law 1x3": lambda: control._kernel(1, 6),
    "law 2x3": lambda: control._kernel(2, 9),
    "derivative omnidirectional 1x3": lambda: plant._derivative("omnidirectional", 1, 3),
    "derivative drone_chain 2x3": lambda: plant._derivative("drone_chain", 2, 3),
    **{f"step {form}": lambda form=form: _blocks()[form] for form in _FORMS},
}


def _global_reads(code) -> set[str]:
    """The names ``code`` and the code objects nested in it load as globals."""
    reads = {i.argval for i in dis.get_instructions(code) if i.opname == "LOAD_GLOBAL"}
    for const in code.co_consts:
        if inspect.iscode(const):
            reads |= _global_reads(const)
    return reads


@pytest.mark.parametrize("name", list(KERNELS))
def test_kernel_globals_resolve(name):
    kernel = KERNELS[name]()
    reads = _global_reads(kernel.__code__)
    assert reads
    missing = {r for r in reads if r not in kernel.__globals__ and not hasattr(builtins, r)}
    assert not missing, f"{name} reads undefined globals {sorted(missing)}"


def test_names_imported_for_the_blocks_are_read_by_them():
    """Every name ``sim`` imports only for its compiled blocks (marked
    ``noqa: F401 (read by the compiled blocks ...)``) is read by at least
    one of them, so an import the law no longer needs cannot stay behind."""
    source = inspect.getsource(sim)
    lines = source.splitlines()
    marked = {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if "(read by the compiled blocks" in lines[alias.lineno - 1]
    }
    assert {
        "atanh", "isfinite", "_collapsed", "_strict_failure", "check_finite", "PlantStateError"
    } <= marked
    for hooked in (False, True):
        blocks = [b for name, b in _blocks().items() if _FORMS[name][3] == hooked]
        reads = set().union(*(_global_reads(b.__code__) for b in blocks))
        # Only the hooked form calls the law; only the unhooked one runs its check.
        expected = marked - ({"_strict_failure"} if hooked else set())
        assert expected <= reads, (
            f"imported for the blocks but never read: {sorted(expected - reads)}"
        )


@pytest.mark.parametrize("source", [
    control._law_source(1, 3),
    control._law_source(2, 3),
    *(sim._block_source(*key) for key in _FORMS.values()),
], ids=["law 1x3", "law 2x3", *(f"step {form}" for form in _FORMS)])
def test_kernels_read_only_the_gains_and_the_guard_from_config(source):
    """The per-step kernels read ``config.kappa`` and ``config.e_max`` and
    no other field of the controller config, so no per-call option can
    creep into the law or the RK4 block."""
    reads = {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "config"
    }
    assert reads == {"kappa", "e_max"}
