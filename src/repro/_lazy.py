"""Lazy re-exports (PEP 562): a package keeps its public names without
importing, at start-up, a submodule that only some commands run.

The compile path (parse → restructure → estimate) never executes a
program, so it must start without NumPy and without the interpreter;
see DESIGN.md, "Import layering".
"""

from __future__ import annotations

import importlib


def lazy_exports(package: dict, exports: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__)`` for the package whose ``globals()`` is
    ``package``.  ``exports`` maps a module to the names the package
    re-exports from it: each is imported on first access and then bound
    in the package, so a later look-up never reaches ``__getattr__``;
    any other name raises ``AttributeError`` as a plain module would."""
    home = {name: module for module, names in exports.items()
            for name in names}

    def __getattr__(name: str):
        module = home.get(name)
        if module is None:
            raise AttributeError(
                f"module {package['__name__']!r} has no attribute {name!r}")
        value = package[name] = getattr(importlib.import_module(module), name)
        return value

    def __dir__():
        return sorted(set(package) | set(home))

    return __getattr__, __dir__
