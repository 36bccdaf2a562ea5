"""Marshaling for ORPC calls.

Values crossing the wire are deep-copied with
:func:`~repro.nt.memory.plain_copy` (no shared state between nodes) and
restricted to plain data: primitives, strings, bytes, lists, tuples,
dicts, and :class:`ObjRef` — the marshaled form of an interface pointer.

Generating "the DCOM server object proxy and stub" is called out in §3.3
as a source of development friction and bugs; here the proxy/stub pair is
generated automatically from the interface declaration, and the marshaler
enforces the same what-can-cross-the-wire discipline MIDL would.
"""

from __future__ import annotations

from dataclasses import dataclass
from sys import getrecursionlimit
from typing import Any, Iterable, List, Tuple

from repro.com.guids import GUID
from repro.com.hresult import E_FAIL
from repro.errors import ComError
from repro.nt.memory import plain_copy


@dataclass(frozen=True)
class ObjRef:
    """A marshaled interface pointer: where the object lives and its id."""

    node: str
    oid: int
    iids: Tuple[GUID, ...]
    label: str = ""

    def supports(self, iid: GUID) -> bool:
        """Whether the exported object claimed *iid* at export time."""
        return iid in self.iids

    def __str__(self) -> str:
        return f"objref:{self.node}/{self.oid}({self.label})"


_SCALARS = (int, float, bool, str, bytes, type(None))


def _check(value: Any, depth: int = 0) -> None:
    if depth > 32:
        raise ComError(E_FAIL, "marshal: structure too deep")
    if isinstance(value, _SCALARS) or isinstance(value, (ObjRef, GUID)):
        return
    if isinstance(value, (list, tuple)):
        for item in value:
            _check(item, depth + 1)
        return
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, (str, int)):
                raise ComError(E_FAIL, f"marshal: unsupported dict key type {type(key).__name__}")
            _check(item, depth + 1)
        return
    raise ComError(E_FAIL, f"marshal: unsupported type {type(value).__name__}")


def marshal_value(value: Any) -> Any:
    """Validate and deep-copy *value* for transmission."""
    _check(value)
    return plain_copy(value)


def unmarshal_value(value: Any) -> Any:
    """Deep-copy *value* on receipt (symmetric with :func:`marshal_value`)."""
    return plain_copy(value)


#: Exact types with a fixed wire size.
_FIXED_WIRE_SIZES = {type(None): 4, bool: 4, int: 8, float: 8, GUID: 32, ObjRef: 32}


def estimate_wire_size(value: Any) -> int:
    """Approximate encoded size, used for network serialisation delay.

    ``None`` and bools cost 4, numbers 8, strings and bytes 4 plus their
    length, GUIDs and object references 32, lists, tuples and dicts 8
    plus their items (a dict's keys and values), anything else 64.  The
    walk keeps its own stack of item iterables, so a cyclic value raises
    ``RecursionError`` past ``sys.getrecursionlimit()`` levels instead
    of looping.
    """
    total = 0
    limit = getrecursionlimit()
    pending: List[Tuple[int, Iterable[Any]]] = [(0, (value,))]
    pop = pending.pop
    push = pending.append
    fixed = _FIXED_WIRE_SIZES
    while pending:
        depth, items = pop()
        depth += 1
        if depth > limit:
            raise RecursionError("estimate_wire_size: value nested too deep (cyclic?)")
        for item in items:
            kind = type(item)
            size = fixed.get(kind)
            if size is not None:
                total += size
            elif kind is str or kind is bytes:
                total += 4 + len(item)
            elif kind is list or kind is tuple:
                total += 8
                push((depth, item))
            elif kind is dict:
                total += 8
                push((depth, item.keys()))
                push((depth, item.values()))
            elif isinstance(item, (int, float)):
                total += 8
            elif isinstance(item, (str, bytes)):
                total += 4 + len(item)
            elif isinstance(item, (GUID, ObjRef)):
                total += 32
            elif isinstance(item, (list, tuple)):
                total += 8
                push((depth, item))
            elif isinstance(item, dict):
                total += 8
                push((depth, item.keys()))
                push((depth, item.values()))
            else:
                total += 64
    return total
