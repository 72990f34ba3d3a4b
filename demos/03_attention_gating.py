"""Squeeze-and-excitation gating on feature maps and on capsules.

Shows the channel gates an SE block computes for a feature map, then the
capsule-level variant that reweights poses and agreement scores.
"""

import numpy as np

from capsnet import Tensor
from capsnet.attention import (attention_capsules, default_se_ratio, se_block)


def main():
    rng = np.random.default_rng(3)

    print("== reduction-ratio rule ==")
    for c in (128, 64, 16, 10, 7):
        print(f"  channels {c:>3d} -> ratio {default_se_ratio(c)}")

    print("\n== SE block on a feature map ==")
    c = 8
    x = rng.standard_normal((1, 6, 6, c))
    x[..., 0] *= 4.0   # channel 0 carries most of the energy
    x[..., 7] *= 0.05  # channel 7 is nearly silent
    ratio = default_se_ratio(c)
    hidden = c // ratio
    w1 = Tensor(rng.standard_normal((c, hidden)) * 0.5)
    b1 = Tensor(np.zeros(hidden))
    w2 = Tensor(rng.standard_normal((hidden, c)) * 0.5)
    b2 = Tensor(np.zeros(c))
    out = se_block(Tensor(x), w1, b1, w2, b2)
    gates = out.data[0, 0, 0] / x[0, 0, 0]  # out = gate * x, per channel
    print("  per-channel gates:", np.array2string(gates, precision=3))
    print("  all inside (0,1): ", bool(np.all((gates > 0) & (gates < 1))))

    print("\n== attention over capsules ==")
    J, k = 8, 16
    poses = rng.standard_normal((J, k))
    agree = rng.standard_normal(J)
    agree[2] = 3.0  # capsule 2 has the strongest raw agreement
    r = default_se_ratio(J)
    aw1 = Tensor(rng.standard_normal((J, J // r)) * 0.5)
    ab1 = Tensor(np.zeros(J // r))
    aw2 = Tensor(rng.standard_normal((J // r, J)) * 0.5)
    ab2 = Tensor(np.zeros(J))
    # a batch of one instance: poses [1,J,k], agreements [1,J]
    res = attention_capsules(Tensor(poses[None]), Tensor(agree[None]), aw1, ab1, aw2, ab2)
    gates, acts, gated = res.gates.data[0], res.activations.data[0], res.poses.data[0]
    print("  gates            :", np.array2string(gates, precision=3))
    print("  raw agreement    :", np.array2string(agree, precision=3))
    print("  activations      :", np.array2string(acts, precision=3))
    print("  activation sum   :", float(acts.sum()))
    shrink = np.linalg.norm(gated, axis=-1) / np.linalg.norm(poses, axis=-1)
    print("  pose shrink      :", np.array2string(shrink, precision=3),
          "(equals the gates)")


if __name__ == "__main__":
    main()
