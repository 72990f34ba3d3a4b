"""Importing the package and its CLI loads no scipy: the engine's sigmoid is
numpy, and the ``*_reference`` oracles import ``scipy.special`` on their
first call."""

import json
import os
import subprocess
import sys
from pathlib import Path

import capsnet

PROGRAM = """
import json, sys
import numpy as np
import capsnet, capsnet.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

after_import = scipy_modules()
from capsnet.attention import se_block_reference
se_block_reference(np.ones((1, 2, 2, 4)), np.ones((4, 1)), np.zeros(1),
                   np.ones((1, 4)), np.zeros(4))
print(json.dumps({"after_import": after_import, "after_oracle": scipy_modules()}))
"""


def test_import_loads_no_scipy_until_an_oracle_runs():
    src = str(Path(capsnet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", PROGRAM], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    loaded = json.loads(run.stdout)
    assert loaded["after_import"] == []
    assert "scipy.special" in loaded["after_oracle"]
