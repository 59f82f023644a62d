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
from sttube.plant import make_custom_plant, make_plant
from sttube.scenario import PlantConfig


def _custom_plant():
    return make_custom_plant(
        1, 2, [lambda x: (0.0, 0.0)], [lambda x: ((1.0, 0.0), (0.0, 1.0))]
    )


def _blocks():
    return {
        "omnidirectional 1x3": sim._block(make_plant(PlantConfig(kind="omnidirectional"), 2)),
        "drone_chain 2x3": sim._block(make_plant(PlantConfig(kind="drone_chain"), 3)),
        "custom 1x2": sim._block(_custom_plant()),
    }


KERNELS = {
    "law 1x3": lambda: control._kernel(1, 6),
    "law 2x3": lambda: control._kernel(2, 9),
    "derivative omnidirectional 1x3": lambda: plant._derivative("omnidirectional", 1, 3),
    "derivative drone_chain 2x3": lambda: plant._derivative("drone_chain", 2, 3),
    **{
        f"step {shape}": lambda shape=shape: _blocks()[shape]
        for shape in ("omnidirectional 1x3", "drone_chain 2x3", "custom 1x2")
    },
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
    assert {"atanh", "isfinite", "_collapsed", "check_finite", "PlantStateError"} <= marked
    reads = set().union(*(_global_reads(b.__code__) for b in _blocks().values()))
    assert marked <= reads, f"imported for the blocks but never read: {sorted(marked - reads)}"


@pytest.mark.parametrize("source", [
    control._law_source(1, 3),
    control._law_source(2, 3),
    sim._block_source("omnidirectional", 1, 3),
    sim._block_source("drone_chain", 2, 3),
    sim._block_source("custom", 1, 2),
], ids=["law 1x3", "law 2x3", "step omnidirectional 1x3", "step drone_chain 2x3",
        "step custom 1x2"])
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
