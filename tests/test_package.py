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
