"""The benchmark's outside-in tracer still fits the package.

``perfbench/tracer.py`` replaces named functions in named modules, and
refuses to run if a module no longer imports a function by that name.
Renaming or un-importing one would break only the traced benchmark run;
this test makes it fail here instead.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def attributes(tracer):
    """(owner, attribute) for everything the tracer replaces."""
    found = []
    for _layer, _name, home, func, importers, _facts in tracer.TARGETS:
        for module in (home,) + importers:
            found.append((importlib.import_module(f"unruhkit.{module}"), func))
    for _layer, _name, home, cls_name, methods in tracer.METHOD_TARGETS:
        cls = getattr(importlib.import_module(f"unruhkit.{home}"), cls_name)
        found.extend((cls, method) for method in methods)
    return found


def test_install_wraps_and_uninstall_restores():
    tracing = load_tracer()
    targets = attributes(tracing)
    originals = [vars(owner)[attr] for owner, attr in targets]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(vars(owner)[attr] is not original
                   for (owner, attr), original in zip(targets, originals))
    finally:
        tracer.uninstall()
    assert all(vars(owner)[attr] is original for (owner, attr), original in zip(targets, originals))
