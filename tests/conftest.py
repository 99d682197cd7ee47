import os
from pathlib import Path

import numpy as np
import pytest

from tsodlqr import ConstraintSetP, ConstraintSetQ, CostMatrices, OfflineConfig, ThetaParams

# pytest's pythonpath setting reaches this process only; the CLI subprocesses
# that tests start find the package through PYTHONPATH.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

A_STAR = np.array([[0.6, 0.5, 0.4], [0.0, 0.5, 0.4], [0.0, 0.0, 0.4]])
B_STAR = np.array([[1.0, 0.5], [0.5, 1.0], [0.5, 0.5]])
A_SIM = np.array([[0.7, 0.5, 0.4], [0.0, 0.5, 0.4], [0.0, 0.0, 0.4]])
B_SIM = np.array([[1.1, 0.5], [0.5, 1.0], [0.5, 0.5]])


@pytest.fixture(scope="session")
def theta_star():
    return ThetaParams(A_STAR, B_STAR)


@pytest.fixture(scope="session")
def theta_sim():
    return ThetaParams(A_SIM, B_SIM)


@pytest.fixture(scope="session")
def costs32():
    return CostMatrices(np.eye(3), np.eye(2))


@pytest.fixture(scope="session")
def set_q():
    return ConstraintSetQ(m_p=50.0, rho=0.99)


@pytest.fixture(scope="session")
def set_p():
    return ConstraintSetP(m_sim=50.0, phi=5.0, rho_sim=0.99)


@pytest.fixture(scope="session")
def offline_cfg(set_p):
    return OfflineConfig(set_p=set_p, dither_std=1.0, regularizer=1.0)
