"""A fixed reference kernel that measures how fast the machine is right now.

On a shared 2-vCPU x86-64 virtual machine the same unit of work, on the same
seed, ran anywhere from 0.8 s to 1.5 s within minutes, and process CPU time
moved with it: other tenants on the same physical cores change the speed of
every instruction, not the share of time this process gets. run.py
therefore times this kernel before and after every unit and reports the
unit's time relative to it. The kernel is the benchmark's own code, so no
change to the program can make it faster or slower.

Its mix mirrors one tape pass of the program: small dense matmuls and ReLUs
with per-operation Python bookkeeping, a forward and backward sweep, and
batched 3x3 complex solves, Cholesky factorizations and a Hermitian
eigendecomposition. One call takes about 0.1 s.
"""

import time

import numpy as np

_ROUNDS = 400


class _Op:
    __slots__ = ("value", "weight")

    def __init__(self, value, weight):
        self.value = value
        self.weight = weight


class ReferenceKernel:
    """Callable that runs the fixed kernel and returns its wall time in s."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((40, 36))
        self.weights = [0.1 * rng.standard_normal(shape)
                        for shape in ((36, 64), (64, 64), (64, 6))]
        a = rng.standard_normal((40, 3, 3)) + 1j * rng.standard_normal((40, 3, 3))
        self.m = a @ np.conj(np.swapaxes(a, 1, 2)) + 3.0 * np.eye(3)
        self.rhs = rng.standard_normal((40, 3, 3)) + 0j
        self.checksum = 0.0

    def __call__(self):
        start = time.perf_counter()
        total = 0.0
        for _ in range(_ROUNDS):
            ops, h = [], self.x
            for w in self.weights:
                h = h @ w
                ops.append(_Op(h, w))
                h = np.maximum(h, 0.0)
            z = np.linalg.solve(self.m, self.rhs)
            np.linalg.eigh(self.m[0])
            c = np.linalg.cholesky(self.m)
            y = np.einsum("bij,bjk->bik", c, self.rhs)
            g = np.ones_like(h)
            for op in reversed(ops):
                g = (g * (op.value > 0.0)) @ op.weight.T
            total += float(np.abs(z).sum()) + float(np.abs(y).sum()) + float(g.sum())
        elapsed = time.perf_counter() - start
        self.checksum = total  # keeps every result in use
        return elapsed
