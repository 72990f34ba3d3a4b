"""The package runs on numpy alone: with scipy blocked from import, the
package, its CLI, the ``*_reference`` oracles and the op gradient checks
all run."""

import os
import subprocess
import sys
from pathlib import Path

import capsnet

PROGRAM = """
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import numpy as np
import capsnet, capsnet.cli
from capsnet.attention import attention_capsules_reference, se_block_reference

se_block_reference(np.ones((1, 2, 2, 4)), np.ones((4, 1)), np.zeros(1),
                   np.ones((1, 4)), np.zeros(4))
attention_capsules_reference(np.ones((1, 3, 2)), np.ones((1, 3)), np.ones((3, 1)),
                             np.zeros(1), np.ones((1, 3)), np.zeros(3))
sys.exit(capsnet.cli.main(["gradcheck", "--skip-model"]))
"""


def test_package_runs_without_scipy():
    src = str(Path(capsnet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", PROGRAM], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "13/13 gradient checks passed" in run.stdout
