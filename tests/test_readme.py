"""README's code pointers resolve: every backticked dotted name whose root is
an acnn module or a class of one names something that exists, so a rename
that would leave a pointer stale fails here."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import acnn

README = Path(__file__).resolve().parents[1] / "README.md"


def _roots() -> dict:
    """acnn, its modules by name, and the classes they define by name."""
    roots = {"acnn": acnn}
    modules = [importlib.import_module(f"acnn.{info.name}")
               for info in pkgutil.iter_modules(acnn.__path__)]
    for module in modules:
        roots[module.__name__.rsplit(".", 1)[1]] = module
    for module in modules:
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__.startswith("acnn."):
                roots.setdefault(name, obj)
    return roots


def test_readme_code_pointers_resolve():
    roots = _roots()
    # `model.Param.parts` or `Param.parts()`, but not `numpy.show_config`
    names = re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)(?:\(\))?`", README.read_text(encoding="utf-8"))
    pointers = [name for name in names if name.split(".")[0] in roots]
    assert len(pointers) >= 20, pointers  # the pattern still finds README's pointers
    stale = []
    for pointer in pointers:
        root, *path = pointer.split(".")
        obj = roots[root]
        for part in path:
            if not hasattr(obj, part):
                stale.append(pointer)
                break
            obj = getattr(obj, part)
    assert not stale, f"README names what acnn does not have: {stale}"
