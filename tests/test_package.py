import ast
from importlib import import_module
from pathlib import Path

import unidesign
from unidesign import benchfns, discrepancy, lattice, optimize, sampling, surrogate

MODULES = (discrepancy, lattice, optimize, sampling, surrogate, benchfns)


def test_all_is_the_modules_public_names_once():
    names = unidesign.__all__
    assert names[0] == "__version__"
    assert len(names) == len(set(names))
    assert set(names) == {"__version__"}.union(*(m.__all__ for m in MODULES))


def test_every_public_name_resolves_to_its_module():
    namespace = {}
    exec("from unidesign import *", namespace)
    assert set(unidesign.__all__) <= set(namespace)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(unidesign, name) is getattr(module, name), name


def test_no_module_imports_a_name_it_never_uses():
    # a name a module imports must be read in that module or re-exported in its __all__
    unused = []
    for path in sorted(Path(unidesign.__file__).parent.glob("*.py")):
        module = unidesign if path.stem == "__init__" else import_module(f"unidesign.{path.stem}")
        exported = getattr(module, "__all__", ())
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).partition(".")[0]
                    if name != "*" and name not in used and name not in exported:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []
