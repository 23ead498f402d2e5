"""Every functools cache in the library is bounded, so a long-running
process cannot grow one without limit."""
import importlib
import pkgutil

import polyfract


def test_every_cache_has_a_finite_maxsize():
    caches = {}
    for info in pkgutil.iter_modules(polyfract.__path__):
        module = importlib.import_module(f"polyfract.{info.name}")
        for name, value in vars(module).items():
            if callable(getattr(value, "cache_parameters", None)):
                caches[f"{info.name}.{name}"] = value
    assert "classify._split_group" in caches  # the walk finds the known caches
    unbounded = sorted(name for name, c in caches.items()
                       if c.cache_parameters()["maxsize"] is None)
    assert not unbounded, f"unbounded caches: {unbounded}"
