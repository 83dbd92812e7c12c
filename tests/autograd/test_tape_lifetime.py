"""The tape keeps only what backward reads, and frees it as it goes.

A taped result's node holds its adjoint, closure, parent nodes, shape
and dtype, never its array; each closure saves only the arrays its
adjoint reads.  So an activation no adjoint reads dies with the
forward's locals, before ``backward`` starts.  After a node's closure runs, ``backward`` drops the node's adjoint,
closure and parent links, so saved activations die with the last
closure that holds them while the caller still holds the root.  Leaves
keep ``.grad``.  A consumed node cannot be replayed: a later
``backward`` that reaches one raises before it accumulates anything
(PyTorch's ``retain_graph=False`` rule).  The closures still run in the
same order, so leaf gradients keep their bits; the oracle below is the
keep-everything loop ``backward`` ran before it freed nodes.
"""

from __future__ import annotations

import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import (
    Tensor,
    clip_values,
    concatenate,
    conv1d,
    leaky_relu,
    log_softmax,
    maximum,
    softmax,
    where,
)
from repro.autograd.tensor import _accumulate, _node_of
from repro.core import STSMConfig, STSMForecaster
from repro.data import WindowSpec, space_split, temporal_split
from repro.data.synthetic import make_pems_bay


def keep_everything_backward(root: Tensor) -> None:
    """The backward loop before freeing: every node outlives the call.

    A node's parents are only those that need a gradient, so the walk
    needs no ``requires_grad`` filter.
    """
    start = _node_of(root)
    topo, visited, stack = [], set(), [(start, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    _accumulate(start, np.ones_like(root.data))
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def _leaves(rng):
    weight = Tensor(rng.normal(size=(4, 3)) * 0.5, requires_grad=True)
    return Tensor(rng.normal(size=(2, 4)), requires_grad=True), weight


class TestFreeing:
    def test_interior_activation_freed_while_root_alive(self):
        x, w = _leaves(np.random.default_rng(0))
        hidden = (x @ w).tanh()
        activation = weakref.ref(hidden.data)
        root = (hidden * hidden).sum()
        del hidden
        assert activation() is not None  # the tape holds it until backward
        root.backward()
        assert activation() is None
        assert root.item() > 0 and x.grad is not None and w.grad is not None

    def test_interior_grad_dropped_leaf_grad_kept(self):
        x, w = _leaves(np.random.default_rng(1))
        hidden = x @ w
        root = hidden.sigmoid().sum()
        root.backward()
        assert hidden.grad is None and root.grad is None
        assert x.grad.shape == x.shape and w.grad.shape == w.shape

    @pytest.mark.parametrize(
        "name",
        ["exp", "sigmoid", "relu", "softmax", "log_softmax", "leaky_relu",
         "clip_values", "where", "matmul", "conv1d"],
    )
    def test_closure_saving_an_activation_releases_it(self, name):
        # Each op's closure holds its input; once backward consumed the
        # op's node, nothing else may keep that input alive.
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        kernel = Tensor(rng.normal(size=(2, 3, 2)), requires_grad=True)
        ops = {
            "exp": lambda a: a.exp(),
            "sigmoid": lambda a: a.sigmoid(),
            "relu": lambda a: a.relu(),
            "softmax": lambda a: softmax(a, axis=-1),
            "log_softmax": lambda a: log_softmax(a, axis=-1),
            "leaky_relu": lambda a: leaky_relu(a),
            "clip_values": lambda a: clip_values(a, -0.5, 0.5),
            "where": lambda a: where(a.data > 0, a, a * 0.5),
            "matmul": lambda a: a @ w,
            "conv1d": lambda a: conv1d(a.reshape(1, 3, 4), kernel),
        }
        hidden = x.tanh()
        activation = weakref.ref(hidden.data)
        root = (ops[name](hidden) * 1.5).sum()
        del hidden
        assert activation() is not None
        root.backward()
        assert activation() is None
        assert x.grad is not None and np.isfinite(x.grad).all()

    def test_leaf_root_accumulates_over_calls(self):
        x = Tensor(np.array([1.5]), requires_grad=True)
        x.backward()
        x.backward()
        assert x.grad.tolist() == [2.0]


class TestSecondBackwardRaises:
    def test_same_root(self):
        x, w = _leaves(np.random.default_rng(2))
        root = (x @ w).tanh().sum()
        root.backward()
        before = x.grad.copy(), w.grad.copy()
        with pytest.raises(RuntimeError, match="consumed"):
            root.backward()
        assert x.grad.tobytes() == before[0].tobytes()
        assert w.grad.tobytes() == before[1].tobytes()

    def test_second_root_through_shared_subgraph(self):
        # Replaying the stale interior adjoint gave x.grad == 22; freeing
        # without the mark would silently give 6.  The call must refuse.
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = x * 2.0
        (y * 3.0).sum().backward()
        assert x.grad.tolist() == [6.0]
        second = (y * 5.0).sum()
        with pytest.raises(RuntimeError, match="consumed"):
            second.backward()
        assert x.grad.tolist() == [6.0]

    def test_fresh_graph_after_consumption(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        (x * 2.0 * 3.0).sum().backward()
        (x * 2.0 * 5.0).sum().backward()
        assert x.grad.tolist() == [16.0]


# --- random composite graphs ------------------------------------------------

_N = 3
_UNARY = {
    "tanh": lambda a: a.tanh(),
    "sigmoid": lambda a: a.sigmoid(),
    "relu": lambda a: a.relu(),
    "square": lambda a: a * a,
    "softmax": lambda a: softmax(a, axis=-1),
    "transpose": lambda a: a.transpose(),
    "center": lambda a: a - a.mean(axis=0, keepdims=True),
}
_BINARY = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "matmul": lambda a, b: a @ b,
    "maximum": lambda a, b: maximum(a, b),
    "stack_rows": lambda a, b: concatenate([a, b], axis=0)[1 : 1 + _N],
}
_steps = st.one_of(
    st.tuples(st.sampled_from(sorted(_UNARY)), st.integers(0, 63)),
    st.tuples(st.sampled_from(sorted(_BINARY)), st.integers(0, 63), st.integers(0, 63)),
)


@st.composite
def _graphs(draw):
    """Leaf seeds plus a program whose steps may reuse any earlier node."""
    seeds = draw(st.lists(st.integers(0, 2 ** 31 - 1), min_size=1, max_size=3))
    return seeds, draw(st.lists(_steps, min_size=1, max_size=12))


def _build(seeds, program):
    leaves = [
        Tensor(np.random.default_rng(seed).normal(size=(_N, _N)), requires_grad=True)
        for seed in seeds
    ]
    row = Tensor(np.random.default_rng(seeds[0] + 1).normal(size=(_N,)), requires_grad=True)
    # The row enters broadcast, so its adjoint is unbroadcast; every node
    # in the pool is (_N, _N), so any step can take any two of them.
    pool = leaves + [row + Tensor(np.zeros((_N, _N)))]
    first = len(pool)
    for name, *picks in program:
        args = [pool[pick % len(pool)] for pick in picks]
        pool.append((_UNARY if len(args) == 1 else _BINARY)[name](*args))
    # Summing every new node lets several paths reach a shared subexpression.
    root = pool[first].sum()
    for node in pool[first + 1 :]:
        root = root + node.sum()
    return leaves + [row], root


@settings(max_examples=60, deadline=None)
@given(_graphs())
def test_leaf_grads_bitwise_equal_keep_everything_oracle(graph):
    seeds, program = graph
    freed_leaves, freed_root = _build(seeds, program)
    kept_leaves, kept_root = _build(seeds, program)
    assert freed_root.data.tobytes() == kept_root.data.tobytes()
    freed_root.backward()
    keep_everything_backward(kept_root)
    for freed, kept in zip(freed_leaves, kept_leaves):
        if kept.grad is None:
            assert freed.grad is None
        else:
            assert freed.grad.dtype == kept.grad.dtype
            assert freed.grad.tobytes() == kept.grad.tobytes()


def _run_first(node, check) -> None:
    """Make ``node``'s closure call ``check()`` before it does its work."""
    inner = node._backward

    def probe(grad):
        check()
        inner(grad)

    node._backward = probe


def test_operand_a_closure_reads_lives_until_that_closure_runs():
    x, w = _leaves(np.random.default_rng(4))
    v = Tensor(np.random.default_rng(5).normal(size=(2, 3)), requires_grad=True)
    hidden = x @ w  # no closure saves a matmul's output ...
    product = hidden * v  # ... but this one reads it for v's adjoint
    operand = weakref.ref(hidden.data)
    del hidden
    root = product.sum()
    seen = []
    _run_first(product._node, lambda: seen.append(operand() is not None))
    del product
    assert operand() is not None
    root.backward()
    assert seen == [True]
    assert operand() is None


# --- a real fit ---------------------------------------------------------------


def _micro_fit(gcn_depth: int = 1):
    dataset = make_pems_bay(num_sensors=16, num_days=2, seed=42)
    split = space_split(dataset.coords, "horizontal")
    spec = WindowSpec(input_length=6, horizon=6)
    train_ix, _ = temporal_split(dataset.num_steps)
    model = STSMForecaster(
        STSMConfig(
            hidden_dim=8, num_blocks=1, tcn_levels=2, gcn_depth=gcn_depth, epochs=1,
            patience=1, batch_size=8, window_stride=8, top_k=4,
        )
    )
    return lambda: model.fit(dataset, split, spec, train_ix)


def _saved_arrays(root: Tensor):
    """Every array a closure on ``root``'s tape holds, and each one's base."""
    seen, stack = set(), [_node_of(root)]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
        cells = getattr(node._backward, "__closure__", None) or ()
        values = [cell.cell_contents for cell in cells]
        while values:
            value = values.pop()
            if isinstance(value, (tuple, list)):
                values.extend(value)
            elif isinstance(value, np.ndarray):
                yield value
                if isinstance(value.base, np.ndarray):
                    values.append(value.base)


def test_stsm_forward_frees_what_no_adjoint_reads(monkeypatch):
    """Pre-sigmoid gates, pre-ReLU conv outputs, dropout inputs and the
    max-pools' operands die with the forward, and no closure keeps a
    conv's tap matrix; the ``GCNL`` product its weights' adjoints read
    lives until backward has run their closures."""
    import repro.core.gcn as gcn
    import repro.nn.layers as layers

    unread = {"pre-sigmoid": [], "conv pre-ReLU": [], "dropout input": [], "max-pool operand": []}
    shared, checks, tap_shapes = [], [], set()

    layers_conv1d, gcn_maximum = layers.conv1d, gcn.maximum

    def recording(original, kind):
        def wrapper(*args, **kwargs):
            unread[kind].append(weakref.ref(args[0].data))
            return original(*args, **kwargs)
        return wrapper

    def recording_conv(inputs, weight, *args, **kwargs):
        out = layers_conv1d(inputs, weight, *args, **kwargs)
        unread["conv pre-ReLU"].append(weakref.ref(out.data))
        (batch, c_in, _), kernel, out_len = inputs.shape, weight.shape[-1], out.shape[-1]
        tap_shapes.update({(c_in * kernel, batch * out_len), (c_in, kernel, batch, out_len)})
        return out

    def recording_max(a, b):
        unread["max-pool operand"].extend(weakref.ref(t.data) for t in (a, b))
        return gcn_maximum(a, b)

    monkeypatch.setattr(Tensor, "sigmoid", recording(Tensor.sigmoid, "pre-sigmoid"))
    monkeypatch.setattr(layers, "conv1d", recording_conv)
    monkeypatch.setattr(layers, "dropout", recording(layers.dropout, "dropout input"))
    monkeypatch.setattr(gcn, "maximum", recording_max)
    twin = Tensor.twin

    def recording_twin(self):
        shared.append(weakref.ref(self.data))
        return twin(self)

    monkeypatch.setattr(Tensor, "twin", recording_twin)
    original = Tensor.backward

    def checked_backward(self, grad=None):
        if not checks:
            checks.append({kind: sum(ref() is not None for ref in refs)
                           for kind, refs in unread.items()})
            checks.append(all(ref() is not None for ref in shared))
            checks.append([a.shape for a in _saved_arrays(self) if a.shape in tap_shapes])
            original(self, grad)
            checks.append(sum(ref() is not None for ref in shared))
        else:
            original(self, grad)

    monkeypatch.setattr(Tensor, "backward", checked_backward)
    _micro_fit(gcn_depth=2)()  # depth 2: each branch max-pools its two GCNL outputs
    alive, shared_before, saved_taps, shared_after = checks
    assert all(unread.values()) and shared, "the fit ran no gate, conv, dropout, max or GCNL"
    assert alive == dict.fromkeys(unread, 0)
    assert saved_taps == []
    assert shared_before and shared_after == 0


def test_stsm_fit_backward_peak_stays_near_live_memory(monkeypatch):
    """Backward frees what it consumed, so its peak barely exceeds the tape.

    On this fit, keeping every node alive until the root is dropped
    peaked at 1.76x the memory traced when backward starts; freeing
    peaks at 1.11x.
    """
    fit = _micro_fit()
    ratios = []
    original = Tensor.backward

    def traced_backward(self, grad=None):
        live, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        original(self, grad)
        ratios.append(tracemalloc.get_traced_memory()[1] / live)

    monkeypatch.setattr(Tensor, "backward", traced_backward)
    tracemalloc.start()
    try:
        fit()
    finally:
        tracemalloc.stop()
    assert ratios, "the fit ran no backward"
    assert max(ratios) <= 1.25, [round(r, 2) for r in ratios]
