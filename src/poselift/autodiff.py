"""Reverse-mode automatic differentiation over float64 numpy arrays.

A Tensor wraps an ndarray and remembers how it was produced; backward()
topologically sorts the graph and accumulates gradients into .grad.
Only the ops that something calls are implemented: +, binary and unary
-, * (a Tensor on either side), @, sum, mean, tanh, reshape, transpose,
basic and advanced indexing, and concat, each with broadcasting where it
applies. The models use some of them; the per-op reference graphs in
tests/oracles.py, which rebuild each model node from these ops, are why
tanh, mean and transpose are kept.

The heavy pieces of the models are single nodes that their modules build
with Tensor(value, parents, backward) and a backward written out in numpy:
the lifter's embedding, its whole forward and each of its loss terms
(tcn), the realness energy (discriminator) and the refinement terms (iso).
The ops here join them in a training step (slicing, reshapes, scaling)
and build the per-op reference graphs the tests check those nodes against.
"""

from __future__ import annotations

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward pass."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and grad.shape[i] != 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "parents", "_backward", "requires_grad", "_grad_buffer")

    def __init__(self, data, parents=(), backward=None, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.parents = tuple(parents)
        self._backward = backward
        self.requires_grad = requires_grad
        self.grad = None
        self._grad_buffer = None      # set by the optimizer that owns this parameter

    # -------------------------------------------------- graph plumbing

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def _new_grad(self) -> np.ndarray:
        """The array a step's first gradient is written into: the one its
        optimizer owns for a parameter, else a fresh one. Worker threads (the
        branch groups of a wide tcn forward) free gradients into their own
        malloc arenas, which keep the memory; a fresh array per parameter
        and step would grow the process's peak memory with every arena."""
        return np.empty_like(self.data) if self._grad_buffer is None else self._grad_buffer

    def _accumulate(self, grad):
        if self.grad is None:
            # a copy, never `grad` itself: it may be a view of another node's gradient
            self.grad = self._new_grad()
            self.grad[...] = grad
        else:
            self.grad += grad

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward only from scalar outputs")
        # depth-first post-order without recursion, so graph depth is not
        # bounded by the interpreter's recursion limit
        order = []
        seen = {id(self)}
        stack = [(self, iter(self.parents))]
        while stack:
            node, parents = stack[-1]
            for p in parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append((p, iter(p.parents)))
                    break
            else:
                stack.pop()
                order.append(node)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node)

    # -------------------------------------------------- arithmetic

    @staticmethod
    def _lift(x):
        return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))

    def __add__(self, other):
        other = Tensor._lift(other)

        def back(out):
            self._accumulate(_unbroadcast(out.grad, self.shape))
            other._accumulate(_unbroadcast(out.grad, other.shape))

        return Tensor(self.data + other.data, (self, other), back)

    def __neg__(self):
        def back(out):
            self._accumulate(-out.grad)

        return Tensor(-self.data, (self,), back)

    def __sub__(self, other):
        return self + (-Tensor._lift(other))

    def __mul__(self, other):
        other = Tensor._lift(other)

        def back(out):
            self._accumulate(_unbroadcast(out.grad * other.data, self.shape))
            other._accumulate(_unbroadcast(out.grad * self.data, other.shape))

        return Tensor(self.data * other.data, (self, other), back)

    __rmul__ = __mul__

    def __matmul__(self, other):
        other = Tensor._lift(other)

        def back(out):
            g = out.grad
            ga = g @ np.swapaxes(other.data, -1, -2)
            if self.ndim > 2 and other.ndim == 2:
                # stacked rows times one matrix: fold the stack into one product
                # rather than form a matrix per stack entry and sum them
                gb = self.data.reshape(-1, self.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            else:
                gb = np.swapaxes(self.data, -1, -2) @ g
            self._accumulate(_unbroadcast(ga, self.shape))
            other._accumulate(_unbroadcast(gb, other.shape))

        return Tensor(self.data @ other.data, (self, other), back)

    # -------------------------------------------------- reductions

    def sum(self, axis=None, keepdims=False):
        def back(out):
            g = out.grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape))

        return Tensor(self.data.sum(axis=axis, keepdims=keepdims), (self,), back)

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -------------------------------------------------- elementwise

    def tanh(self):
        value = np.tanh(self.data)

        def back(out):
            self._accumulate(out.grad * (1.0 - value * value))

        return Tensor(value, (self,), back)

    # -------------------------------------------------- shape ops

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.shape

        def back(out):
            self._accumulate(out.grad.reshape(old))

        return Tensor(self.data.reshape(shape), (self,), back)

    def transpose(self, axes):
        inverse = np.argsort(axes)

        def back(out):
            self._accumulate(out.grad.transpose(inverse))

        return Tensor(self.data.transpose(axes), (self,), back)

    def __getitem__(self, key):
        basic = all(k is None or k is Ellipsis or isinstance(k, slice)
                    or (isinstance(k, (int, np.integer)) and not isinstance(k, bool))
                    for k in (key if isinstance(key, tuple) else (key,)))

        def back(out):
            if self.grad is None:
                self.grad = np.zeros_like(self.data)
            if basic:
                # basic indices select each element at most once
                self.grad[key] += out.grad
            else:
                np.add.at(self.grad, key, out.grad)

        return Tensor(self.data[key], (self,), back)

    @staticmethod
    def concat(tensors, axis=0):
        tensors = [Tensor._lift(t) for t in tensors]
        sizes = [t.shape[axis] for t in tensors]
        splits = np.cumsum(sizes)[:-1]

        def back(out):
            pieces = np.split(out.grad, splits, axis=axis)
            for t, g in zip(tensors, pieces):
                t._accumulate(g)

        return Tensor(np.concatenate([t.data for t in tensors], axis=axis),
                      tuple(tensors), back)


def parameter(data, rng=None) -> Tensor:
    """Trainable leaf. With rng, fills shape `data` uniform(-s, s), s = 1/sqrt(shape[-1])."""
    if rng is not None:
        shape = data if isinstance(data, tuple) else tuple(data)
        fan_in = shape[-1] if len(shape) > 1 else shape[0]
        scale = 1.0 / np.sqrt(max(fan_in, 1))
        data = rng.uniform(-scale, scale, size=shape)
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


class SGD:
    """Stochastic gradient descent with classical momentum.

    It owns one gradient array per parameter, and each step's backward
    accumulates the parameter's gradient in that array (Tensor._new_grad),
    so a step allocates no parameter-sized gradient arrays.
    """

    def __init__(self, params, lr: float, momentum: float = 0.9):
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.velocity = [np.zeros_like(p.data) for p in self.params]
        self.grads = [np.empty_like(p.data) for p in self.params]
        for p, g in zip(self.params, self.grads):
            p._grad_buffer = g

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        for p, v in zip(self.params, self.velocity):
            if p.grad is None:
                continue
            v *= self.momentum
            v -= self.lr * p.grad
            p.data += v
