"""Backbone anatomy: width plans, stage resolutions, parameter budgets.

Instantiates the convolutional trunk directly, pushes an image through it
stage by stage, and compares parameter counts across block variants.
"""

from itertools import groupby

import numpy as np

from capsnet import CapsuleClassifier, ModelConfig, Tensor
from capsnet.backbone import Backbone, block_widths, parameter_count
from capsnet.initializers import init_from_table


def main():
    print("== bottleneck width plans at f = 64 ==")
    for variant in ("standard", "wide"):
        w = block_widths(64, variant)
        print(f"  {variant:8s} -> reduce {w[0]:3d}, conv {w[1]:3d}, expand {w[2]:3d}")

    print("\n== stage-by-stage shapes (32x32x3 input) ==")
    net = Backbone(in_channels=3, stem_widths=(16, 32, 64, 128),
                   stage_widths=(64, 128, 256), stage_depths=(4, 8, 4))
    params, stats = init_from_table(net.table(), 0, np.float32)
    x = Tensor(np.random.default_rng(1).standard_normal((1, 32, 32, 3)).astype(np.float32))
    x = net.stem(params, x)
    print(f"  stem   -> {x.shape}")
    for stage, blocks in groupby(net.blocks, key=lambda b: b.prefix.split(".")[0]):
        blocks = list(blocks)
        for block in blocks:
            x = block(params, stats, x, training=False)
        print(f"  {stage} -> {x.shape}  ({len(blocks)} blocks)")
    print(f"  backbone parameters: {parameter_count(params):,}")

    print("\n== whole-model parameter budgets ==")
    base = dict(input_shape=(32, 32, 3), num_classes=10,
                stem_widths=(16, 32, 64, 128), stage_depths=(4, 8, 4))
    for variant in ("standard", "wide"):
        model = CapsuleClassifier(ModelConfig(block_variant=variant, **base))
        p, _ = model.init_params(seed=0)
        print(f"  {variant:8s} blocks: {parameter_count(p):>9,} parameters "
              f"({model.num_primary} primary capsules)")


if __name__ == "__main__":
    main()
