"""The benchmark's tracer hooks still resolve, and uninstall restores them.

``perfbench/tracer.py`` wraps charp's public functions and a few private
names by attribute, and its metrics look wrapped public names up; a rename
in ``src/`` fails ``Tracer.install`` or ``layer_metrics`` here before it
breaks the benchmark.  The file is imported, never changed.
"""

import importlib.util
import inspect
from pathlib import Path

import charp
import charp.cli  # noqa: F401  (the tracer binds every module through it)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def label(holder):
    """A module's name, or a class's module-qualified name."""
    if inspect.isclass(holder):
        return f"{holder.__module__}.{holder.__qualname__}"
    return holder.__name__


def bindings(modules):
    """Every attribute of charp, of the given modules and of their classes."""
    holders = [charp, *modules]
    for mod in modules:
        holders += [v for v in vars(mod).values()
                    if inspect.isclass(v) and v.__module__ == mod.__name__]
    return {(label(h), attr): val
            for h in holders for attr, val in vars(h).items()}


def test_install_wraps_every_hook_and_uninstall_restores_it():
    tracer = load_tracer()
    modules = [getattr(charp, name) for name in tracer.MODULES]
    before = bindings(modules)
    t = tracer.Tracer()
    try:
        t.install()
        wrapped = {(label(holder), attr) for holder, attr, _ in t._patches}
        during = bindings(modules)
        metrics = t.layer_metrics()  # looks up each public name it reads
    finally:
        t.uninstall()
    for short, owner, attr in tracer.EXTRA:
        holder = f"charp.{short}" + (f".{owner}" if owner else "")
        assert (holder, attr) in wrapped, (short, owner, attr)
    assert ("charp.cartier", "_tau_cache") in wrapped
    assert metrics["frobenius.bracket_root_calls"] == 0
    assert all(during[key] is not before[key] for key in wrapped)
    after = bindings(modules)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
