"""Source rules checked on the syntax tree.

Every name a module of ``src/`` or ``tests/`` imports is used in that
module, no ``np.einsum`` in ``src/`` takes more than two operands, and no
module of ``src/`` calls ``np.meshgrid``.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _unused_imports(path: pathlib.Path) -> list[str]:
    """Names bound by an import of ``path`` that no other expression reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # "import a.b" binds "a"
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in read]


def test_every_imported_name_is_used():
    # a package's __init__ imports its public names to re-export them
    files = [p for p in sorted((ROOT / "src").rglob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "tests").glob("*.py"))
    assert len(files) > 10
    unused = {p.relative_to(ROOT).as_posix(): names
              for p in files if (names := _unused_imports(p))}
    assert unused == {}


def _einsum_operands(call: ast.Call) -> int:
    """Operands of an einsum call: its inputs in the subscripts, or its arguments after them."""
    operands = len(call.args) - 1
    first = call.args[0] if call.args else None
    if isinstance(first, ast.Constant) and isinstance(first.value, str):
        operands = max(operands, len(first.value.split("->")[0].split(",")))
    return operands


def test_no_einsum_in_src_takes_more_than_two_operands():
    # numpy runs an einsum of three or more operands as one unoptimised
    # nested loop, several times slower than a matmul and a two-operand
    # reduction (r^T C r on 4,096 points in 4D: 399 us against 47 us)
    slow = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "einsum" and _einsum_operands(node) > 2:
                slow.append(f"{path.relative_to(ROOT).as_posix()}:{node.lineno}")
    assert slow == []


def test_no_meshgrid_in_src():
    # a meshgrid of dim arrays, stacked, costs about three times the one
    # preallocated grid that the cartesian runner fills axis by axis
    # (4D at two nodes an axis: 39 us against 11 us)
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "meshgrid":
                found.append(f"{path.relative_to(ROOT).as_posix()}:{node.lineno}")
    assert found == []
