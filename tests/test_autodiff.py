import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poselift.autodiff import SGD, Tensor, parameter


def numeric_grad(f, x, idx, eps=1e-6):
    a = x.copy()
    a.flat[idx] += eps
    b = x.copy()
    b.flat[idx] -= eps
    return (f(a) - f(b)) / (2.0 * eps)


def check_grads(f, x, n_probe=10, rel=1e-6, seed=0):
    """f maps an ndarray to a scalar through Tensor ops."""
    rng = np.random.default_rng(seed)
    t = Tensor(x.copy())
    out = f(t)
    out.backward()
    got = t.grad
    for idx in rng.choice(x.size, size=min(n_probe, x.size), replace=False):
        want = numeric_grad(lambda a: f(Tensor(a)).item(), x, idx)
        denom = max(abs(want), abs(got.flat[idx]), 1e-8)
        assert abs(got.flat[idx] - want) / denom < rel, (idx, got.flat[idx], want)


def test_diamond_graph_exact():
    x = Tensor(np.array([3.0]))
    y = x * x + x
    y.sum().backward()
    assert x.grad[0] == pytest.approx(7.0)


def test_add_mul_broadcast():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(4, 5))
    b = rng.normal(size=(5,))

    def f(t):
        return (t * Tensor(b) + Tensor(b)).sum()

    check_grads(f, a)
    # gradient w.r.t. the broadcast operand
    ta, tb = Tensor(a), Tensor(b.copy())
    ((ta * tb).sum()).backward()
    assert tb.grad.shape == b.shape
    assert np.allclose(tb.grad, a.sum(axis=0))


def test_matmul_2d():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    check_grads(lambda t: (t @ Tensor(b)).sum(), a)
    check_grads(lambda t: (Tensor(a) @ t).sum(), b)


def test_matmul_batched_broadcast():
    rng = np.random.default_rng(3)
    w = rng.normal(size=(2, 3))
    x = rng.normal(size=(5, 3, 7))
    check_grads(lambda t: (t @ Tensor(x)).sum(), w)

    def f(t):
        y = Tensor(w) @ t
        return (y * y).sum()

    check_grads(f, x)


def test_reductions_and_pow():
    rng = np.random.default_rng(4)
    x = np.abs(rng.normal(size=(6, 3))) + 0.5
    check_grads(lambda t: (t * t * t).mean(), x)
    check_grads(lambda t: t.sum(axis=0).sum() * 0.5 + t.mean(axis=1).sum(), x)


def test_elementwise_nonlinearities():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 4))
    check_grads(lambda t: t.tanh().sum(), x)


def test_reshape_transpose_slice():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(4, 6))

    def f(t):
        r = t.reshape(2, 12).transpose((1, 0))
        return (r[3:9] * 2.0).sum() + r[0].sum()

    check_grads(f, x)


def test_gather_accumulates_repeated_indices():
    x = Tensor(np.array([1.0, 2.0, 3.0]))
    idx = np.array([0, 0, 2])
    y = x[idx].sum()
    y.backward()
    assert np.array_equal(x.grad, [2.0, 0.0, 1.0])


def test_basic_slice_gradients_are_exact():
    # negative step, int, Ellipsis and None, on overlapping slices of one tensor
    rng = np.random.default_rng(17)
    x = Tensor(rng.normal(size=(3, 4, 5)))
    w1 = rng.normal(size=(3, 5))
    w2 = rng.normal(size=(2, 4, 1, 3))
    w3 = rng.normal(size=(5,))
    y = (x[::-1, 1] * w1).sum() + (x[1:, ..., None, -4:-1] * w2).sum() \
        + (x[2, -1, ...] * w3).sum()
    y.backward()
    want = np.zeros((3, 4, 5))
    want[::-1, 1] += w1
    want[1:, ..., -4:-1] += w2[:, :, 0, :]
    want[2, -1] += w3
    assert np.allclose(x.grad, want, rtol=0, atol=1e-15)


def test_advanced_index_with_repeats_accumulates():
    x = Tensor(np.array([5.0, 6.0, 7.0]))
    x[[0, 0, 1]].sum().backward()
    assert np.array_equal(x.grad, [2.0, 1.0, 0.0])


def test_first_gradient_does_not_alias_a_view():
    # reshape hands its input a view of its own gradient; the input must
    # store a copy, or the second use's gradient would leak into the view
    x = Tensor(np.arange(6.0).reshape(2, 3))
    flat = x.reshape(6)
    w = np.arange(1.0, 7.0)
    u = np.full((2, 3), 10.0)
    y = (flat * w).sum() + (x * u).sum()
    y.backward()
    assert np.array_equal(flat.grad, w)
    assert np.array_equal(x.grad, w.reshape(2, 3) + u)


def test_concat():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(3, 2))
    b = rng.normal(size=(3, 4))

    def f(t):
        joined = Tensor.concat([t, Tensor(b)], axis=1)
        return (joined * joined).sum()

    check_grads(f, a)


def test_composite_network_gradients():
    # a dense-tanh-dense head, squared into a scalar
    rng = np.random.default_rng(9)
    w1 = rng.normal(size=(8, 5)) * 0.3
    w2 = rng.normal(size=(1, 8)) * 0.3
    x = rng.normal(size=(5, 7))

    def f(t):
        h = (t @ Tensor(x)).tanh()
        y = Tensor(w2) @ h
        return (y * y).sum()

    check_grads(f, w1, n_probe=15, rel=1e-5)


def test_backward_requires_scalar():
    x = Tensor(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        (x * 2.0).backward()


def test_grad_accumulates_across_uses():
    x = Tensor(np.array([2.0]))
    y = x * 3.0
    z = y + y  # y used twice
    z.sum().backward()
    assert x.grad[0] == pytest.approx(6.0)


def test_backward_deeper_than_recursion_limit():
    x = Tensor(np.array([2.0]))
    y = x
    for _ in range(3 * sys.getrecursionlimit()):
        y = y * 1.0 + x
    y.sum().backward()
    assert x.grad[0] == 3 * sys.getrecursionlimit() + 1


def test_sgd_momentum_matches_manual_update():
    p = parameter(np.array([1.0, -1.0]))
    opt = SGD([p], lr=0.1, momentum=0.5)
    for step in range(3):
        opt.zero_grad()
        loss = (p * p).sum()
        loss.backward()
        opt.step()
    # replay by hand
    w = np.array([1.0, -1.0])
    v = np.zeros(2)
    for step in range(3):
        g = 2.0 * w
        v = 0.5 * v - 0.1 * g
        w = w + v
    assert np.allclose(p.data, w)


def test_sgd_owns_each_parameters_gradient_array():
    # every step's first gradient goes into the optimizer's array, then adds
    # up there; a tensor outside any optimizer gets a fresh array per step
    rng = np.random.default_rng(12)
    p = parameter(rng.normal(size=(3, 4)))
    q = Tensor(p.data.copy())
    opt = SGD([p], lr=0.1, momentum=0.5)
    fresh = []
    for step in range(3):
        x = Tensor(rng.normal(size=(4, 2)))
        opt.zero_grad()
        q.grad = None
        for t in (p, q):
            ((t * t).sum() + (t @ x).sum()).backward()
        assert p.grad is opt.grads[0]
        assert np.array_equal(p.grad, q.grad)
        assert all(q.grad is not g for g in fresh + opt.grads)
        fresh.append(q.grad)
        opt.step()
        q.data = p.data.copy()


def test_parameter_init_scale():
    rng = np.random.default_rng(10)
    p = parameter((20, 50), rng=rng)
    assert p.requires_grad
    assert np.abs(p.data).max() <= 1.0 / np.sqrt(50) + 1e-12


# ------------------------------------------------ random graphs
#
# A drawn graph starts from one leaf and adds nodes one op at a time; an
# operand of + or * is an earlier node whose shape broadcasts with the
# first, or a new leaf that does. The loss weighs every node, so fan-out and
# repeated uses accumulate gradients too.

OPS = ("add", "mul", "matmul", "reshape", "slice", "index", "sum", "mean", "tanh")


@st.composite
def graphs(draw):
    """(leaf shapes, program, node shapes, seed): each program step names an
    op, its operands (node positions, or leaf positions for new leaves) and
    its arguments, and adds one node."""
    dims = st.integers(1, 3)
    leaves = [tuple(draw(st.lists(dims, min_size=2, max_size=3)))]
    shapes, program = [leaves[0]], []

    def new_leaf(shape):
        leaves.append(shape)
        return ("leaf", len(leaves) - 1)

    # the ops in a drawn order, so that one graph holds several kinds
    order = draw(st.permutations(OPS))
    for i in range(draw(st.integers(1, 8))):
        a = draw(st.integers(0, len(shapes) - 1))
        sa = shapes[a]
        op = order[i % len(OPS)]
        if (op in ("slice", "index") and not sa) or (op == "matmul" and len(sa) < 2):
            op = "reshape"
        if op in ("add", "mul"):
            b = draw(st.integers(0, len(shapes) - 1))
            try:
                out = np.broadcast_shapes(sa, shapes[b])
                other = ("node", b)
            except ValueError:
                k = draw(st.integers(0, len(sa)))
                shape = tuple(draw(st.sampled_from((1, n))) for n in sa[len(sa) - k:])
                if k == len(sa):
                    shape = tuple(draw(st.lists(dims, max_size=1))) + shape
                other, out = new_leaf(shape), np.broadcast_shapes(sa, shape)
            step = (op, a, other, draw(st.booleans()))
        elif op == "matmul":
            p = draw(dims)
            if draw(st.booleans()):           # node @ leaf, either one stacked or both
                lead = draw(st.sampled_from([(), sa[:-2] or (2,)]))
                leaf = lead + (sa[-1], p)
                out = np.broadcast_shapes(sa[:-2], lead) + (sa[-2], p)
                step = (op, a, new_leaf(leaf), False)
            else:                             # leaf @ node
                out = sa[:-2] + (p, sa[-1])
                step = (op, a, new_leaf((p, sa[-2])), True)
        elif op == "reshape":
            size = int(np.prod(sa))
            out = draw(st.sampled_from([(size,), sa[::-1], (1,) + sa]))
            step = (op, a, out)
        elif op == "slice":
            axis = draw(st.integers(0, len(sa) - 1))
            n = sa[axis]
            if draw(st.booleans()):
                item = draw(st.integers(-n, n - 1))
            else:
                start = draw(st.integers(0, n - 1))
                stop = draw(st.integers(start + 1, n))
                item = slice(start, stop, draw(st.integers(1, 2)))
                if draw(st.booleans()):       # the same elements, last first
                    item = slice(stop - 1, start - 1 if start else None, -1)
            key = (slice(None),) * axis + (item,)
            out = np.empty(sa)[key].shape
            step = (op, a, key)
        elif op == "index":
            idx = draw(st.lists(st.integers(0, sa[0] - 1), min_size=1, max_size=4))
            out = (len(idx),) + sa[1:]
            step = (op, a, np.array(idx))
        elif op in ("sum", "mean"):
            axis = draw(st.sampled_from([None, *range(len(sa))]))
            out = np.empty(sa).sum(axis=axis).shape
            step = (op, a, axis)
        else:
            out, step = sa, (op, a)
        shapes.append(tuple(out))
        program.append(step)
    return leaves, program, shapes, draw(st.integers(0, 2 ** 32 - 1))


def run_graph(program, leaves, coefs):
    """The loss of a drawn graph over leaf Tensors: each node's sum weighed by its coefs."""
    nodes = [leaves[0]]
    for op, a, *args in program:
        x = nodes[a]
        if op in ("add", "mul", "matmul"):
            (kind, j), swap = args
            y = nodes[j] if kind == "node" else leaves[j]
            if swap:
                x, y = y, x
            nodes.append(x + y if op == "add" else x * y if op == "mul" else x @ y)
        elif op == "reshape":
            nodes.append(x.reshape(args[0]))
        elif op in ("slice", "index"):
            nodes.append(x[args[0]])
        elif op == "sum":
            nodes.append(x.sum(axis=args[0]))
        elif op == "mean":
            nodes.append(x.mean(axis=args[0]))
        else:
            nodes.append(x.tanh())
    loss = Tensor(0.0)
    for node, c in zip(nodes, coefs):
        loss = loss + (node * Tensor(c)).sum()
    return loss


@settings(max_examples=100)
@given(graph=graphs())
def test_random_graph_gradients_match_central_differences(graph):
    shapes_of_leaves, program, shapes, seed = graph
    rng = np.random.default_rng(seed)
    values = [rng.uniform(-1.0, 1.0, s) for s in shapes_of_leaves]
    coefs = [rng.uniform(-1.0, 1.0, s) for s in shapes]
    leaves = [Tensor(v.copy()) for v in values]
    run_graph(program, leaves, coefs).backward()
    for j, v in enumerate(values):
        got = np.zeros_like(v) if leaves[j].grad is None else leaves[j].grad
        assert got.shape == v.shape

        def f(a, j=j):
            return run_graph(program, [Tensor(a) if i == j else Tensor(w)
                                       for i, w in enumerate(values)], coefs).item()

        want = np.array([numeric_grad(f, v, i) for i in range(v.size)]).reshape(v.shape)
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-8)
