"""Install wrappers on ``repro`` functions and put every original back.

Both the result probes (``probes.py``) and the span tracer
(``spans.py``) observe the program by replacing a class attribute or a
module-level function with a wrapper that calls the original.  A
function imported by name (``from repro.nt.memory import
copy_variables``) is looked up in the importing module, so it is
replaced in every loaded ``repro`` module that holds it.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, List, Tuple

#: Marker set on every wrapper this module installs.
WRAPPED_MARK = "__perfbench_wrapped__"


def resolve(path: str) -> Tuple[Any, str]:
    """``"repro.x.y:Class.attr"`` -> (owner object, attribute name)."""
    module_name, _, qualname = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _mark(wrapper: Any) -> Any:
    setattr(wrapper, WRAPPED_MARK, True)
    return wrapper


def wrap_callable(original: Any, make: Callable[[Callable], Callable]) -> Any:
    """Apply *make* to a function, or to the getter of a property."""
    if isinstance(original, property):
        return property(_mark(make(original.fget)), original.fset, original.fdel, original.__doc__)
    return _mark(make(original))


def repro_modules() -> List[Any]:
    """Every loaded ``repro`` module, in name order."""
    return [sys.modules[name] for name in sorted(sys.modules)
            if (name == "repro" or name.startswith("repro.")) and sys.modules[name] is not None]


class Patcher:
    """Records each replacement so :meth:`restore` can undo all of them."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []
        self._wrappers: List[Tuple[Any, Any]] = []  # (wrapper, original)

    def patch_attr(self, owner: Any, name: str, make: Callable[[Callable], Callable]) -> None:
        """Wrap ``owner.__dict__[name]`` (a method, property or function)."""
        original = vars(owner)[name]
        wrapper = wrap_callable(original, make)
        setattr(owner, name, wrapper)
        self._undo.append((owner, name, original))
        self._wrappers.append((wrapper, original))

    def patch_function(self, path: str, make: Callable[[Callable], Callable]) -> None:
        """Wrap a module-level function everywhere a ``repro`` module holds it."""
        owner, name = resolve(path)
        original = getattr(owner, name)
        wrapper = wrap_callable(original, make)
        for module in repro_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))
        self._wrappers.append((wrapper, original))

    def restore(self) -> None:
        """Put every original back, newest patch first.

        A ``repro`` module first imported while the patches were live may
        have copied a wrapper by name; those copies are swept too.
        """
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)
        originals = {id(wrapper): original for wrapper, original in self._wrappers}
        for module in repro_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in originals:
                    setattr(module, attr, originals[id(value)])
        self._wrappers.clear()


def installed_wrappers() -> List[str]:
    """Names of wrappers still reachable from ``repro`` modules and classes."""
    found = []
    for module in repro_modules():
        for attr, value in vars(module).items():
            if getattr(value, WRAPPED_MARK, False):
                found.append(f"{module.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for name, member in vars(value).items():
                    target = member.fget if isinstance(member, property) else member
                    if getattr(target, WRAPPED_MARK, False):
                        found.append(f"{module.__name__}.{attr}.{name}")
    return found
