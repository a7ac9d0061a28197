"""Lazy package exports (PEP 562).

A package ``__init__`` lists each public name under the submodule that
defines it; the submodule is imported when the name is first read
(``from repro import CSRPlusIndex`` included) and the value is then
cached in the package namespace.  ``import repro`` thus loads almost
nothing, and a process loads only the submodules it touches: the
``csrplus serve`` processes never load scipy (docs/frontend.md, "Boot
and memory").
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Dict, List, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``.

    ``exports`` maps a submodule, relative to ``package`` (``".index"``),
    to the names it defines.
    """
    owners = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owners))

    return __getattr__, __dir__
