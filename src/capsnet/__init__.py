"""Capsule-network image classifier on a small numpy autodiff engine.

The package provides:

* ``tensor`` / ``ops``: a reverse-mode gradient tape over numpy arrays
* ``routing``: squash, normalized votes, factorized pairwise-interaction
  routing with softmax ("modified") or exp ("original") activations
* ``attention``: squeeze-excite gates for feature maps and class capsules
* ``backbone``: conv stem + wide bottleneck residual SE blocks
* ``model``: the assembled classifier
* ``training`` / ``checkpoint`` / ``data``: SGD loop, persistence, loaders
* ``gradcheck``: finite-difference verification of every gradient path
* ``ablation``: the v1..v5 architecture ladder
* ``cli``: train / eval / gradcheck / routing-demo / ablate subcommands
"""

from .ablation import LADDER, ladder_config, run_ladder
from .attention import (AttentionResult, attention_capsules,
                        attention_capsules_reference, default_se_ratio,
                        se_block, se_block_reference)
from .backbone import Backbone, Bottleneck, Stem, block_widths, parameter_count
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ModelConfig, TrainConfig
from .data import (find_idx_split, load_cifar10_dir, load_idx_pair, make_bars,
                   make_blobs, normalize_images, take_subset, train_test_split)
from .errors import (BatchSizeError, CapsnetError, CheckpointError, ConfigError,
                     DataFormatError, GradientCheckError, ShapeError,
                     TrainingDivergenceError)
from .gradcheck import CheckResult, finite_diff_check, model_check, standard_checks
from .model import CapsuleClassifier, ModelOutput
from .routing import (RoutingResult, agreement, capsule_predictions, fm_interaction,
                      fm_interaction_reference, interaction_pose, l2_normalize,
                      route, squash)
from .tensor import GradientTape, Tensor
from .training import (TrainState, accuracy, cross_entropy_loss, evaluate, fit,
                       init_train_state, one_hot, read_history_csv, sgd_step,
                       step_lr, train_epoch, write_history_csv)

__version__ = "0.1.0"
