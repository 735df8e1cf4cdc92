"""Every name a module of the package lists in `__all__` exists in it."""

import importlib
import pkgutil

import mscr


def test_every_exported_name_exists():
    modules = [importlib.import_module(f"mscr.{info.name}")
               for info in pkgutil.iter_modules(mscr.__path__)]
    exporting = [m for m in modules if hasattr(m, "__all__")]
    assert len(exporting) >= 6
    for module in exporting:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
