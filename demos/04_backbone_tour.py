"""Backbone anatomy: width plans, stage resolutions, parameter budgets.

Builds the paper model, pushes an image through its layer list (the stem,
then every bottleneck block) stage by stage, and compares parameter counts
across block variants.
"""

from itertools import groupby

import numpy as np

from capsnet import CapsuleClassifier, ModelConfig, Tensor
from capsnet.backbone import block_widths, parameter_count


def main():
    print("== bottleneck width plans at f = 64 ==")
    for variant in ("standard", "wide"):
        w = block_widths(64, variant)
        print(f"  {variant:8s} -> reduce {w[0]:3d}, conv {w[1]:3d}, expand {w[2]:3d}")

    print("\n== stage-by-stage shapes (32x32x3 input) ==")
    base = dict(input_shape=(32, 32, 3), num_classes=10,
                stem_widths=(16, 32, 64, 128), stage_depths=(4, 8, 4))
    model = CapsuleClassifier(ModelConfig(**base))
    params, stats = model.init_params(seed=0)
    x = Tensor(np.random.default_rng(1).standard_normal((1, 32, 32, 3)).astype(np.float32))
    for stage, layers in groupby(model.layers, key=lambda layer: layer.prefix.split(".")[0]):
        layers = list(layers)
        for layer in layers:
            x = layer(params, stats, x, training=False)
        print(f"  {stage:6s} -> {x.shape}  ({len(layers)} layer{'s' * (len(layers) > 1)})")
    prefixes = tuple(layer.prefix + "." for layer in model.layers)
    backbone = {k: v for k, v in params.items() if k.startswith(prefixes)}
    print(f"  backbone parameters: {parameter_count(backbone):,}")

    print("\n== whole-model parameter budgets ==")
    for variant in ("standard", "wide"):
        model = CapsuleClassifier(ModelConfig(block_variant=variant, **base))
        p, _ = model.init_params(seed=0)
        print(f"  {variant:8s} blocks: {parameter_count(p):>9,} parameters "
              f"({model.num_primary} primary capsules)")


if __name__ == "__main__":
    main()
