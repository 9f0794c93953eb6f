"""Architecture gate: layering and the one metric table, checked by AST.

* ``repro.obs`` imports nothing from ``repro.serve`` — the metrics
  layer sits below everything that records into it;
* inside ``repro.serve`` imports point only down the
  net -> frontend -> engine chain (the engine's helpers — cache,
  faults, resilience — sit at the engine's level);
* every ``repro_*`` series name handed to ``counter`` / ``gauge`` /
  ``histogram`` under ``src/`` is declared in
  :data:`repro.obs.series.SERIES`, every declared name is recorded
  somewhere, and the table declares each name exactly once.
"""

import ast
from collections import Counter
from pathlib import Path

from repro.obs.series import SERIES

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "repro"

#: Rank in the serve call chain: a module may import only its own rank
#: or lower.  Package facades (``__init__``) re-export and are exempt.
_SERVE_RANK = {
    "repro.serve.cache": 0,
    "repro.serve.faults": 0,
    "repro.serve.resilience": 0,
    "repro.serve.engine": 0,
    "repro.serve.frontend": 1,
    "repro.serve.net": 2,
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(path: Path):
    """Absolute names of every module ``path`` imports (relative resolved)."""
    tree = ast.parse(path.read_text())
    package = _module_name(path)
    if path.name != "__init__.py":
        package = package.rsplit(".", 1)[0]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.split(".")
                base = base[: len(base) - node.level + 1]
                module = ".".join(base + ([node.module] if node.module else []))
            else:
                module = node.module or ""
            yield module
            for alias in node.names:
                yield f"{module}.{alias.name}"


def _serve_rank(module: str):
    for prefix, rank in _SERVE_RANK.items():
        if module == prefix or module.startswith(prefix + "."):
            return rank
    return None


def test_obs_imports_nothing_from_serve():
    offenders = [
        (str(path.relative_to(SRC)), name)
        for path in sorted((PACKAGE / "obs").rglob("*.py"))
        for name in _imports(path)
        if name == "repro.serve" or name.startswith("repro.serve.")
    ]
    assert offenders == []


def test_serve_imports_point_down_the_chain():
    offenders = []
    for path in sorted((PACKAGE / "serve").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        own = _serve_rank(_module_name(path))
        assert own is not None, f"{path} has no rank in the serve chain"
        for name in _imports(path):
            rank = _serve_rank(name)
            if rank is not None and rank > own:
                offenders.append((str(path.relative_to(SRC)), name))
    assert offenders == []


def _recorded_series():
    """Every repro_* name passed to counter/gauge/histogram under src/."""
    names = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        constants = {
            target.id: node.value.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("counter", "gauge", "histogram")
                and node.args
            ):
                continue
            arg = node.args[0]
            if isinstance(arg, ast.Constant):
                name = arg.value
            elif isinstance(arg, ast.Name):
                name = constants.get(arg.id)
            else:
                name = None
            if isinstance(name, str) and name.startswith("repro_"):
                names.append((name, node.func.attr, str(path.relative_to(SRC))))
    return names


def test_every_recorded_series_is_declared_once():
    counts = Counter(s.name for s in SERIES)
    assert [name for name, n in counts.items() if n != 1] == []
    kinds = {s.name: s.kind for s in SERIES}
    recorded = _recorded_series()
    undeclared = [r for r in recorded if r[0] not in kinds]
    assert undeclared == []
    wrong_kind = [r for r in recorded if kinds[r[0]] != r[1]]
    assert wrong_kind == []
    unused = sorted(set(kinds) - {name for name, _, _ in recorded})
    assert unused == []
