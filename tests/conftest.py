import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cubescore


def rand_orthogonal(rng, n):
    """Haar-ish orthogonal matrix from the QR of a Gaussian draw."""
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def rand_col_stochastic(rng, n):
    a = rng.uniform(0.05, 1.0, size=(n, n))
    return a / a.sum(axis=0)


def rand_antisymmetric(rng, r, scale=1.0):
    a = rng.normal(scale=scale, size=(r, r))
    return a - a.T


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)


def run_python(code, **env):
    """stdout of ``python -c code`` in a fresh process that imports this
    checkout's ``cubescore``, with ``env`` added to the environment."""
    src = str(Path(cubescore.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, **env, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    return done.stdout
