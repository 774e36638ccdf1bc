import sys

import numpy as np
import pytest

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
    check_grads(lambda t: ((Tensor(w) @ t) ** 2.0).sum(), x)


def test_reductions_and_pow():
    rng = np.random.default_rng(4)
    x = np.abs(rng.normal(size=(6, 3))) + 0.5
    check_grads(lambda t: (t ** 3.0).mean(), x)
    check_grads(lambda t: t.sum(axis=0).sum() * 0.5 + t.mean(axis=1).sum(), x)


def test_elementwise_nonlinearities():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 4))
    check_grads(lambda t: t.tanh().sum(), x)


def test_division():
    rng = np.random.default_rng(6)
    x = np.abs(rng.normal(size=(5,))) + 1.0
    check_grads(lambda t: (1.0 / t).sum(), x)
    check_grads(lambda t: (t / 3.0).sum(), x)


def test_relu_gradient():
    x = Tensor(np.array([-1.0, 2.0]))
    x.relu().sum().backward()
    assert np.array_equal(x.grad, [0.0, 1.0])


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
        return (joined ** 2.0).sum()

    check_grads(f, a)


def test_composite_network_gradients():
    # a dense-tanh-dense head, squared into a scalar
    rng = np.random.default_rng(9)
    w1 = rng.normal(size=(8, 5)) * 0.3
    w2 = rng.normal(size=(1, 8)) * 0.3
    x = rng.normal(size=(5, 7))

    def f(t):
        h = (t @ Tensor(x)).tanh()
        return ((Tensor(w2) @ h) ** 2.0).sum()

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
