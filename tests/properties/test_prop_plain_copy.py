"""Differential tests: the plain-data copier against ``copy.deepcopy``, and
the iterative size estimators against their recursive definitions.

The copier must give exactly what ``copy.deepcopy`` gives (the same
types at every node, the same aliasing graph) while sharing every
immutable scalar leaf and no mutable container with its source.  The
estimators must return the same integers as the recursive versions
below, which are the definitions the checkpoint byte counts
(``ckpt_kb_per_sim_s``) and DCOM frame sizes (network delay) were
specified with.
"""

import copy
import enum
from collections import OrderedDict, defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.com.guids import GUID, guid_from_name
from repro.com.marshal import ObjRef, estimate_wire_size, marshal_value, unmarshal_value
from repro.core.checkpoint import Checkpoint, canonical_image_bytes
from repro.harness.scenario import build_remote_monitoring
from repro.nt.memory import _estimate_size, plain_copy


# -- oracles: the recursive definitions --------------------------------------------


def recursive_estimate_size(value):
    if isinstance(value, (int, float, bool)) or value is None:
        return 8
    if isinstance(value, str):
        return len(value)
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, dict):
        return 16 + sum(recursive_estimate_size(k) + recursive_estimate_size(v) for k, v in value.items())
    if isinstance(value, (list, tuple, set)):
        return 16 + sum(recursive_estimate_size(item) for item in value)
    return 64


def recursive_wire_size(value):
    if value is None or isinstance(value, bool):
        return 4
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, str):
        return 4 + len(value)
    if isinstance(value, bytes):
        return 4 + len(value)
    if isinstance(value, (GUID, ObjRef)):
        return 32
    if isinstance(value, (list, tuple)):
        return 8 + sum(recursive_wire_size(item) for item in value)
    if isinstance(value, dict):
        return 8 + sum(recursive_wire_size(k) + recursive_wire_size(v) for k, v in value.items())
    return 64


def recursive_checkpoint_size(checkpoint):
    total = 64
    for region in checkpoint.image.values():
        total += 16 + recursive_estimate_size(region)
    total += 32 * len(checkpoint.thread_contexts)
    return total


# -- strategies ------------------------------------------------------------------------


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


LEAF_TYPES = (str, int, float, bool, bytes, type(None))
#: Types compared by value: the copy is a fresh object equal to the source.
OPAQUE_TYPES = (set, frozenset, bytearray, GUID, ObjRef)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=12),
    st.binary(max_size=12),
)
guids = st.builds(guid_from_name, st.text(max_size=6))
objrefs = st.builds(
    ObjRef,
    node=st.text(max_size=6),
    oid=st.integers(min_value=0, max_value=1000),
    iids=st.lists(guids, max_size=2).map(tuple),
    label=st.text(max_size=6),
)
keys = st.one_of(st.text(max_size=8), st.integers(), st.tuples(st.integers(), st.text(max_size=4)))
odd_leaves = st.one_of(
    st.sets(st.integers(), max_size=4),
    st.binary(max_size=8).map(bytearray),
    st.sampled_from(list(Level)),
    guids,
    objrefs,
)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(keys, children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=4).map(OrderedDict),
        st.dictionaries(st.text(max_size=8), children, max_size=4).map(lambda d: defaultdict(list, d)),
    )


trees = st.recursive(st.one_of(scalars, odd_leaves), containers, max_leaves=24)


@st.composite
def graphs(draw):
    """A tree with one sub-list shared from several places, optionally cyclic."""
    shared = draw(st.lists(trees, max_size=3))
    root = draw(st.lists(trees, min_size=1, max_size=4))
    for position in draw(st.lists(st.integers(min_value=0, max_value=len(root)), min_size=1, max_size=3)):
        root.insert(position, shared)
    # The same list behind a dict, a tuple and a fallback-copied
    # defaultdict: aliasing must hold across the copier's fast path and
    # the standard library's slow path.
    root.append({"shared": shared, "again": shared})
    root.append((shared, draw(scalars)))
    root.append(defaultdict(list, {"shared": shared}))
    if draw(st.booleans()):
        root.append(root)
    if draw(st.booleans()):
        loop = []
        loop.append((loop, draw(scalars)))
        root.append(loop)
    if draw(st.booleans()):
        # A cycle entered at a tuple: the tuple is first copied from
        # inside its own list, and the outer visit must return that copy.
        knot = ([draw(scalars)],)
        knot[0].append(knot)
        root.append(knot)
    return root


# -- structural checks ------------------------------------------------------------------


def assert_same_graph(a, b):
    """Walk *a* and *b* in step: exact types match at every node, scalar
    leaves are the identical object, and containers pair one-to-one, so
    two paths meet at one container in *a* exactly when they do in *b*."""
    pairs = {}
    back = {}
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        assert type(x) is type(y), (type(x), type(y))
        if type(x) in LEAF_TYPES or isinstance(x, enum.Enum):
            assert x is y
            continue
        if isinstance(x, OPAQUE_TYPES):
            assert x == y
            continue
        if id(x) in pairs or id(y) in back:
            assert pairs.get(id(x)) is y and back.get(id(y)) is x
            continue
        pairs[id(x)] = y
        back[id(y)] = x
        if isinstance(x, dict):
            assert len(x) == len(y)
            if isinstance(x, defaultdict):
                assert x.default_factory is y.default_factory
            for (kx, vx), (ky, vy) in zip(x.items(), y.items()):
                stack.append((kx, ky))
                stack.append((vx, vy))
        else:
            assert len(x) == len(y)
            stack.extend(zip(x, y))


def mutable_nodes(value):
    """Every mutable object reachable from *value*, by id."""
    seen = {}
    stack = [value]
    while stack:
        node = stack.pop()
        if type(node) in LEAF_TYPES or id(node) in seen:
            continue
        if isinstance(node, (list, dict, set, bytearray)):
            seen[id(node)] = node
        if isinstance(node, dict):
            stack.extend(node.keys())
            stack.extend(node.values())
        elif isinstance(node, (list, tuple, set)):
            stack.extend(node)
    return seen


def assert_faithful_copy(source, copied):
    assert_same_graph(copy.deepcopy(source), copied)
    # Same shape as the source with every scalar leaf shared...
    assert_same_graph(source, copied)
    # ...and no mutable container shared.
    assert not set(mutable_nodes(source)) & set(mutable_nodes(copied))


# -- the copier ---------------------------------------------------------------------------


def test_plain_copy_returns_unchanged_tuples_and_leaves_themselves():
    text, number, row = "alarm", 10**30, ("a", 1, 2.5, None, b"x")
    assert plain_copy(text) is text
    assert plain_copy(number) is number
    assert plain_copy(row) is row
    nested = ("a", [1, 2])
    copied = plain_copy(nested)
    assert copied == nested and copied is not nested and copied[1] is not nested[1]


def test_plain_copy_keeps_self_reference_and_shared_memo():
    loop = [1]
    loop.append(loop)
    copied = plain_copy(loop)
    assert copied is not loop and copied[1] is copied
    # A caller-supplied memo is honoured, as copy.deepcopy's is.
    shared = [1, 2]
    memo = {}
    first = plain_copy({"a": shared}, memo)
    second = plain_copy([shared], memo)
    assert first["a"] is second[0]


def test_plain_copy_keeps_a_cycle_entered_at_a_tuple():
    knot = ([1],)
    knot[0].append(knot)
    copied = plain_copy(knot)
    assert copied is not knot and copied[0] is not knot[0]
    assert copied[0][1] is copied


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_plain_copy_matches_deepcopy_on_aliased_graphs(value):
    assert_faithful_copy(value, plain_copy(value))


@settings(max_examples=100, deadline=None)
@given(trees)
def test_plain_copy_matches_deepcopy_on_trees(value):
    assert_faithful_copy(value, plain_copy(value))


#: What the marshaler admits: no sets or bytearrays, str/int dict keys.
wire_values = st.recursive(
    st.one_of(scalars, guids, objrefs, st.sampled_from(list(Level))),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=8), st.integers()), children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4).map(OrderedDict),
    ),
    max_leaves=24,
)


@settings(max_examples=60, deadline=None)
@given(st.lists(wire_values, max_size=4))
def test_marshal_and_unmarshal_copy_like_deepcopy(args):
    assert_faithful_copy(args, marshal_value(args))
    assert_faithful_copy(args, unmarshal_value(args))


# -- the size estimators ----------------------------------------------------------------


acyclic = st.recursive(
    st.one_of(scalars, odd_leaves),
    lambda children: st.one_of(
        containers(children),
        st.sets(st.one_of(st.integers(), st.text(max_size=4)), max_size=4),
        st.frozensets(st.integers(), max_size=3),
    ),
    max_leaves=30,
)


@st.composite
def shared_trees(draw):
    shared = draw(acyclic)
    return [shared, draw(acyclic), {"x": shared}, (shared,)]


@settings(max_examples=150, deadline=None)
@given(st.one_of(acyclic, shared_trees(), wire_values))
def test_estimators_equal_recursive_definitions(value):
    assert _estimate_size(value) == recursive_estimate_size(value)
    assert estimate_wire_size(value) == recursive_wire_size(value)


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(st.text(min_size=1, max_size=8), st.dictionaries(st.text(max_size=8), acyclic, max_size=4), max_size=3),
    st.dictionaries(st.text(max_size=8), st.dictionaries(st.text(max_size=8), st.integers(), max_size=3), max_size=3),
)
def test_checkpoint_size_equals_recursive_definition(image, contexts):
    checkpoint = Checkpoint("app", 1, 0.0, image, thread_contexts=contexts)
    assert checkpoint.size_bytes() == recursive_checkpoint_size(checkpoint)


def test_estimators_refuse_cyclic_values_instead_of_looping():
    loop = []
    loop.append(loop)
    loop.append(loop)
    with pytest.raises(RecursionError):
        _estimate_size(loop)
    with pytest.raises(RecursionError):
        estimate_wire_size(loop)


def test_estimators_on_a_deeply_nested_value():
    deep = 1
    for _ in range(400):
        deep = [deep]
    assert _estimate_size(deep) == 16 * 400 + 8
    assert estimate_wire_size(deep) == 8 * 400 + 8


# -- checkpoint isolation -------------------------------------------------------------------


def test_scada_checkpoint_is_isolated_from_in_place_mutation():
    scenario = build_remote_monitoring(seed=4)
    scenario.start()
    # Long enough for alarms (temp sine exceeds 80.0 each 20 s cycle).
    scenario.run_for(60_000.0)
    app = scenario.primary_app()
    ftim = app.api.ftim
    ftim.TakeCheckpoint()
    stored = ftim.engine.local_store.latest(ftim.app_name)
    before = canonical_image_bytes(stored.image)
    space = app.process.address_space
    alarm_log = space.read("alarm_log")
    trend = space.read("trend")
    assert alarm_log and trend
    alarm_log[0][2] = -1.0
    alarm_log.append([0.0, "plc1.temp", 99.0])
    for tail in trend.values():
        if tail:
            tail[0][1] = -1.0
        tail.append([0.0, 0.0])
    trend["new-item"] = [[1.0, 2.0]]
    assert canonical_image_bytes(stored.image) == before
