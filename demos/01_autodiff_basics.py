"""Tour of the tensor/tape autodiff core.

Builds a few expressions, asks the tape for gradients, and cross-checks
one of them against a central finite difference.
"""

import numpy as np

from capsnet import GradientTape, Tensor, ops


def main():
    print("== scalars and broadcasting ==")
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    w = Tensor(np.array([[0.5], [-1.0], [2.0]]), requires_grad=True)
    with GradientTape() as tape:
        y = ops.matmul(ops.reshape(x, (1, 3)), w)      # [1,1]
        loss = ops.reduce_sum(ops.square(y))
    gx, gw = tape.gradient(loss, [x, w])
    print("loss        =", loss.item())
    print("dloss/dx    =", gx)
    print("dloss/dw    =", gw.ravel())

    # d(loss)/dx should be 2*y*w
    expect = 2.0 * y.item() * w.data.ravel()
    print("hand value  =", expect, "(matches:", np.allclose(gx, expect), ")")

    print("\n== gradients of intermediates ==")
    a = Tensor(np.array([2.0, -3.0]), requires_grad=True)
    with GradientTape() as tape:
        h = ops.relu(a)              # intermediate node
        out = ops.reduce_sum(ops.multiply(h, h))
    gh = tape.gradient(out, [h])[0]
    print("d(out)/dh   =", gh, " (= 2h, with h =", h.data, ")")

    print("\n== finite-difference spot check on softmax ==")
    rng = np.random.default_rng(0)
    z = Tensor(rng.standard_normal(5), requires_grad=True)
    proj = rng.standard_normal(5)
    with GradientTape() as tape:
        loss = ops.reduce_sum(ops.multiply(ops.softmax(z), Tensor(proj)))
    g = tape.gradient(loss, [z])[0]

    h = 1e-6
    num = np.zeros(5)
    for i in range(5):
        zp, zm = z.data.copy(), z.data.copy()
        zp[i] += h
        zm[i] -= h
        sp = np.exp(zp - zp.max()); sp /= sp.sum()
        sm = np.exp(zm - zm.max()); sm /= sm.sum()
        num[i] = (sp @ proj - sm @ proj) / (2 * h)
    print("tape        =", g)
    print("numeric     =", num)
    print("max |diff|  =", float(np.max(np.abs(g - num))))


if __name__ == "__main__":
    main()
