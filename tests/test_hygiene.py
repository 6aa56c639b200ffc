import ast
import pathlib
import sys

import pytest

from dualsniff import _kernels
from dualsniff.configio import parse_setup

TESTS = pathlib.Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "dualsniff"
PERFBENCH = TESTS.parent / "perfbench"


def _unused_imports(path):
    """Names ``path`` imports and never reads, unless marked ``# noqa: F401``."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(name)
    return unused


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}")
def test_every_import_is_used(path):
    assert _unused_imports(path) == []


def test_benchmark_entry_points_exist():
    """The benchmark's tracer and inputs still find every package name they use."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import inputs
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in tracing.CALL_SITES
               if not hasattr(module, attr)]
    assert missing == []
    assert _kernels.USING_NUMBA is False
    for w in inputs.WORKLOADS.values():
        parse_setup(inputs.config_doc(w, 401))
    (instance,) = inputs.draw_audit_instances(5, (1, 0))
    assert inputs.audit_instance(*instance) <= inputs.AUDIT_GAP_LIMIT
