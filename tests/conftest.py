import os
import subprocess
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

import strikeaudit
from strikeaudit.dataset import FeatureMatrix


def fresh_python(code: str, *args: str) -> str:
    """stdout of ``code`` run with ``args`` in a new interpreter that imports
    this strikeaudit: a result there cannot depend on what the test process
    computed before."""
    env = dict(os.environ, PYTHONPATH=str(Path(strikeaudit.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                          capture_output=True, text=True).stdout


def random_binary_matrix(seed, n, p, signal=None, intercept=-0.3):
    """FeatureMatrix with Bernoulli(0.5) columns and a logistic target.

    signal maps column index -> log-odds coefficient; unlisted columns do
    not influence the outcome. Regenerates until both classes appear.
    """
    rng = np.random.default_rng(seed)
    signal = signal or {}
    for _ in range(100):
        x = (rng.random((n, p)) < 0.5).astype(float)
        eta = np.full(n, float(intercept))
        for j, coef in signal.items():
            eta += coef * x[:, j]
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(int)
        if 0 < y.sum() < n:
            return FeatureMatrix(
                x=x, columns=tuple(f"f{j}" for j in range(p)), y=y
            )
    raise AssertionError("could not generate a two-class sample")
