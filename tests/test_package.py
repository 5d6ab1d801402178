import ast
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import numpy as np

import unidesign
from unidesign import benchfns, discrepancy, lattice, mlhs, optimize, sampling, surrogate

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


_COLD_START = """
import json, sys
import numpy as np
import unidesign, unidesign.cli
from unidesign import kriging_fit, mlhs

def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")

d = sys.argv[1]
for argv in (["sample", "--kind", "lhd", "--n", "5", "--s", "2", "--out", d + "/s.csv"],
             ["construct", "--algo", "ta+cgd", "--n", "4", "--q", "4", "--s", "2", "--stages", "1",
              "--probes", "2", "--iters-per-stage", "5", "--out", d + "/c.csv"],
             ["evaluate", "--design", d + "/c.csv", "--gradient"]):
    assert unidesign.cli.main(argv) == 0, argv
before = scipy_modules()
x = mlhs(12, 2, seed=3)
model = kriging_fit(x, np.sin(5.0 * x).sum(axis=1), "poly1")
print(json.dumps({"before": before, "after": scipy_modules(), "theta": model.theta.tobytes().hex(),
                  "log_likelihood": np.float64(model.log_likelihood).tobytes().hex()}))
"""


def test_cli_commands_run_without_scipy_until_the_first_fit(tmp_path):
    # SciPy costs a fresh process about 0.3 s; only a Kriging fit may load it
    src = str(Path(unidesign.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _COLD_START, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["before"] == []
    assert "scipy.linalg" in got["after"] and "scipy.optimize" not in got["after"]
    x = mlhs(12, 2, seed=3)
    model = unidesign.kriging_fit(x, np.sin(5.0 * x).sum(axis=1), "poly1")
    assert bytes.fromhex(got["theta"]) == model.theta.tobytes()
    assert bytes.fromhex(got["log_likelihood"]) == np.float64(model.log_likelihood).tobytes()
