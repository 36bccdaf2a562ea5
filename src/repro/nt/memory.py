"""Process address spaces and the checkpoint "memory walkthrough".

The paper checkpoints by copying "the address space (or the selected
subset) and the stack" of the application.  We model an address space as a
set of named :class:`MemoryRegion` objects — globals, heap allocations,
and one stack region per thread — each holding named variables.  The FTIM
walks these regions to capture a checkpoint.
"""

from __future__ import annotations

import copy
from sys import getrecursionlimit
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import AccessViolation


GLOBAL = "global"
HEAP = "heap"
STACK = "stack"

_KINDS = (GLOBAL, HEAP, STACK)

#: Exact types that are immutable and therefore safe to share between a
#: region and its snapshot.  ``type()`` identity (not isinstance) keeps
#: the check cheap and conservative: a subclass takes the slow path.
_IMMUTABLE_SCALARS = frozenset((str, int, float, bool, bytes, type(None)))

#: Exact types with a fixed :func:`_estimate_size`.
_FIXED_SIZES = {type(None): 8, bool: 8, int: 8, float: 8}

#: Memo-miss marker (a memoized copy may legitimately be any value).
_MISSING = object()


def plain_copy(value: Any, memo: Optional[Dict[int, Any]] = None) -> Any:
    """Deep copy of plain data that shares every immutable scalar leaf.

    Gives the same result as the standard library's deep copy: exact
    ``str``/``int``/``float``/``bool``/``bytes``/``None`` leaves are
    returned as they are, exact ``list``/``dict``/``tuple`` containers
    are rebuilt (a tuple whose items all come back unchanged is returned
    itself), and *memo* — keyed by container ``id`` — makes aliased and
    self-referencing containers come out aliased the same way.  Any
    other type (``set``, ``bytearray``, subclasses such as
    ``defaultdict`` or ``IntEnum``, ``ObjRef``) goes to the ``copy``
    module's deep copy with the same memo, so aliasing holds across the
    two.
    """
    kind = type(value)
    if kind in _IMMUTABLE_SCALARS:
        return value
    return _copy_node(value, kind, {} if memo is None else memo)


def _copy_node(value: Any, kind: type, memo: Dict[int, Any]) -> Any:
    key = id(value)
    found = memo.get(key, _MISSING)
    if found is not _MISSING:
        return found
    leaves = _IMMUTABLE_SCALARS
    if kind is list:
        out: Any = []
        memo[key] = out
        append = out.append
        for item in value:
            item_kind = type(item)
            append(item if item_kind in leaves else _copy_node(item, item_kind, memo))
        return out
    if kind is dict:
        out = {}
        memo[key] = out
        for name, item in value.items():
            item_kind = type(name)
            if item_kind not in leaves:
                name = _copy_node(name, item_kind, memo)
            item_kind = type(item)
            out[name] = item if item_kind in leaves else _copy_node(item, item_kind, memo)
        return out
    if kind is tuple:
        items = [item if type(item) in leaves else _copy_node(item, type(item), memo) for item in value]
        # A tuple reached again through its own items was copied there.
        found = memo.get(key, _MISSING)
        if found is not _MISSING:
            return found
        for copied, item in zip(items, value):
            if copied is not item:
                out = memo[key] = tuple(items)
                return out
        return value
    # Reviewed-benign HOT004: the slow path for types plain data rarely
    # holds; it shares *memo*, so it is memoized with the fast path.
    return copy.deepcopy(value, memo)  # oftt-lint: ok[hot-unmemoized-heavy]


def copy_variables(data: Dict[str, Any]) -> Dict[str, Any]:
    """Copy a flat variable dict, cheaply when provably safe.

    Checkpoint images are overwhelmingly flat dicts of immutable scalars
    (counters, flags, payload strings).  When every value is one, a
    shallow ``dict()`` copy is a full deep copy — nothing shared is
    mutable.  Any container (or scalar subclass) value sends the whole
    dict through :func:`plain_copy`, so in-place mutation of a held
    list/dict (e.g. the SCADA alarm log) can never leak between a region
    and its snapshots.
    """
    scalars = _IMMUTABLE_SCALARS
    for value in data.values():
        if type(value) not in scalars:
            return plain_copy(data)
    return dict(data)


class MemoryRegion:
    """A named region of a process address space.

    Variables are stored by name; values must be plain picklable Python
    data (snapshots copy them with :func:`plain_copy`).
    """

    def __init__(self, name: str, kind: str = GLOBAL) -> None:
        if kind not in _KINDS:
            raise AccessViolation(f"unknown region kind {kind!r}")
        self.name = name
        self.kind = kind
        self.protected = False
        self._data: Dict[str, Any] = {}

    def write(self, var: str, value: Any) -> None:
        """Store *value* under *var*; fails on protected regions."""
        if self.protected:
            raise AccessViolation(f"write to protected region {self.name}")
        self._data[var] = value

    def read(self, var: str) -> Any:
        """Read *var*; missing names are an access violation."""
        if var not in self._data:
            raise AccessViolation(f"read of unmapped {self.name}:{var}")
        return self._data[var]

    def delete(self, var: str) -> None:
        """Remove *var* from the region."""
        if self.protected:
            raise AccessViolation(f"write to protected region {self.name}")
        self._data.pop(var, None)

    def variables(self) -> List[str]:
        """Names stored in this region, sorted for determinism."""
        return sorted(self._data)

    def snapshot(self) -> Dict[str, Any]:
        """Copy of the region's contents (scalar fast path, else deep)."""
        return copy_variables(self._data)

    def restore(self, data: Dict[str, Any]) -> None:
        """Replace the region's contents with a copy of *data*."""
        self._data = copy_variables(data)

    def size_bytes(self) -> int:
        """Rough size estimate used for checkpoint cost modelling."""
        return sum(_estimate_size(value) for value in self._data.values()) + 16 * len(self._data)

    def __contains__(self, var: str) -> bool:
        return var in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __repr__(self) -> str:
        return f"MemoryRegion({self.name}, kind={self.kind}, vars={len(self._data)})"


class AddressSpace:
    """The full address space of an :class:`~repro.nt.process.NTProcess`."""

    def __init__(self, owner_name: str) -> None:
        self.owner_name = owner_name
        self._regions: Dict[str, MemoryRegion] = {}
        self.map_region("globals", GLOBAL)

    # -- region management -------------------------------------------------

    def map_region(self, name: str, kind: str = HEAP) -> MemoryRegion:
        """Create a region (error if the name already exists)."""
        if name in self._regions:
            raise AccessViolation(f"region {name} already mapped in {self.owner_name}")
        region = MemoryRegion(name, kind)
        self._regions[name] = region
        return region

    def unmap_region(self, name: str) -> None:
        """Destroy a region; subsequent access faults."""
        if name not in self._regions:
            raise AccessViolation(f"unmap of unknown region {name}")
        del self._regions[name]

    def region(self, name: str) -> MemoryRegion:
        """Fetch a region by name or fault."""
        if name not in self._regions:
            raise AccessViolation(f"no region {name} in {self.owner_name}")
        return self._regions[name]

    def has_region(self, name: str) -> bool:
        """Whether *name* is mapped."""
        return name in self._regions

    def regions(self, kind: Optional[str] = None) -> Iterator[MemoryRegion]:
        """Iterate regions (optionally of one kind), sorted by name."""
        for name in sorted(self._regions):
            region = self._regions[name]
            if kind is None or region.kind == kind:
                yield region

    # -- convenience global access ------------------------------------------

    @property
    def globals(self) -> MemoryRegion:
        """The process's global-variable region (always present)."""
        return self._regions["globals"]

    def write(self, var: str, value: Any, region: str = "globals") -> None:
        """Write a variable into *region* (default globals)."""
        self.region(region).write(var, value)

    def read(self, var: str, region: str = "globals") -> Any:
        """Read a variable from *region* (default globals)."""
        return self.region(region).read(var)

    # -- walkthrough ----------------------------------------------------------

    def walkthrough(self, kinds: Optional[List[str]] = None) -> Dict[str, Dict[str, Any]]:
        """The checkpoint "memory walkthrough": snapshot region contents.

        Parameters
        ----------
        kinds:
            Region kinds to include; defaults to all kinds.
        """
        wanted = set(kinds) if kinds is not None else set(_KINDS)
        return {
            region.name: region.snapshot()
            for region in self.regions()
            if region.kind in wanted
        }

    def restore_walkthrough(self, image: Dict[str, Dict[str, Any]]) -> None:
        """Load a walkthrough image, creating missing regions as heap."""
        for region_name, data in image.items():
            if not self.has_region(region_name):
                self.map_region(region_name, HEAP)
            self.region(region_name).restore(data)

    def size_bytes(self) -> int:
        """Estimated total footprint, for checkpoint cost modelling."""
        return sum(region.size_bytes() for region in self.regions())

    def __repr__(self) -> str:
        return f"AddressSpace({self.owner_name}, regions={sorted(self._regions)})"


def _estimate_size(value: Any) -> int:
    """Crude size estimate for cost modelling (not accounting).

    Scalars cost 8, strings and bytes their length, containers 16 plus
    their items (a dict's keys and values), anything else 64.  The walk
    keeps its own stack of item iterables, so a cyclic value raises
    ``RecursionError`` past ``sys.getrecursionlimit()`` levels instead
    of looping.
    """
    total = 0
    limit = getrecursionlimit()
    pending: List[Tuple[int, Iterable[Any]]] = [(0, (value,))]
    pop = pending.pop
    push = pending.append
    fixed = _FIXED_SIZES
    while pending:
        depth, items = pop()
        depth += 1
        if depth > limit:
            raise RecursionError("_estimate_size: value nested too deep (cyclic?)")
        for item in items:
            kind = type(item)
            size = fixed.get(kind)
            if size is not None:
                total += size
            elif kind is str or kind is bytes:
                total += len(item)
            elif kind is dict:
                total += 16
                push((depth, item.keys()))
                push((depth, item.values()))
            elif kind is list or kind is tuple:
                total += 16
                push((depth, item))
            elif isinstance(item, (int, float)):
                total += 8
            elif isinstance(item, (str, bytes)):
                total += len(item)
            elif isinstance(item, dict):
                total += 16
                push((depth, item.keys()))
                push((depth, item.values()))
            elif isinstance(item, (list, tuple, set)):
                total += 16
                push((depth, item))
            else:
                total += 64
    return total
