"""The package's own numerics checked against scipy, which the package itself
does not import: the Riccati solver against the Schur-method DARE solver
(Arnold & Laub, 1984), and the binomial lower test against scipy's binomial
CDF."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

import tsodlqr
from tsodlqr import CostMatrices, ThetaParams, riccati_map, solve_dare
from tsodlqr.harness import binomial_lower_test
from tsodlqr.lqr import DEFAULT_NORM_CEILING, solve_dare_stack


def random_spd(rng, k):
    root = rng.standard_normal((k, k))
    return root @ root.T + 0.1 * np.eye(k)


def random_system(n, m, spectral_radius, seed):
    # Gaussian (A, B) is controllable with probability one; A is scaled to the
    # given spectral radius, so above 1 it is unstable in open loop.
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a *= spectral_radius / max(abs(np.linalg.eigvals(a)))
    b = rng.standard_normal((n, m))
    return a, b, random_spd(rng, n), random_spd(rng, m)


def assert_matches_scipy(p_matrix, gain, a, b, q, r):
    """P and the gain agree with scipy's to 1e-8 relative.  At bad
    conditioning scipy can be the less accurate of the two: a larger
    disagreement passes only when P is no further from a fixed point of the
    Riccati map than scipy's, and the gain is then judged against the gain of
    P itself."""
    theta, costs = ThetaParams(a, b), CostMatrices(q, r)
    p_ref = scipy.linalg.solve_discrete_are(a, b, q, r)
    if np.linalg.norm(p_matrix - p_ref) > 1e-8 * np.linalg.norm(p_ref):

        def residual(p):
            return np.linalg.norm(riccati_map(p, theta, costs) - p)

        assert residual(p_matrix) <= residual(p_ref)
        p_ref = p_matrix
    k_ref = -np.linalg.solve(r + b.T @ p_ref @ b, b.T @ p_ref @ a)
    assert np.linalg.norm(gain - k_ref) <= 1e-8 * np.linalg.norm(k_ref)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 5),
    m=st.integers(1, 5),
    spectral_radius=st.floats(0.1, 1.6),
    seed=st.integers(0, 2**32 - 1),
)
# ||P||_F = 2.7e7: the two P differ by 1.8e-7 relative, and scipy's has the
# larger Riccati residual (0.30 against 0.0039).
@example(n=4, m=1, spectral_radius=1.0319, seed=2142483648)
def test_solve_dare_matches_scipy(n, m, spectral_radius, seed):
    a, b, q, r = random_system(n, m, spectral_radius, seed)
    sol = solve_dare(ThetaParams(a, b), CostMatrices(q, r))
    assert_matches_scipy(sol.p_matrix, sol.gain, a, b, q, r)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 5),
    m=st.integers(1, 5),
    radii=st.lists(st.floats(0.1, 1.6), min_size=1, max_size=9),
    seed=st.integers(0, 2**32 - 1),
)
def test_solve_dare_stack_matches_scipy(n, m, radii, seed):
    # One stack of systems that share the cost matrices; each slice stops at
    # its own step and is judged against scipy on its own.
    systems = [random_system(n, m, radius, seed + i) for i, radius in enumerate(radii)]
    q, r = systems[0][2], systems[0][3]
    stacked = np.array([np.vstack([a.T, b.T]) for a, b, _, _ in systems])
    sols = solve_dare_stack(stacked, CostMatrices(q, r))
    for i, (a, b, _, _) in enumerate(systems):
        if sols.failure[i]:
            # The iterates rise monotonically to P, so only a P beyond the
            # divergence ceiling can fail.
            assert np.linalg.norm(scipy.linalg.solve_discrete_are(a, b, q, r)) > 0.5 * DEFAULT_NORM_CEILING
            continue
        assert_matches_scipy(sols.p_matrix[i], sols.gain[i], a, b, q, r)
        assert sols.avg_cost[i] == np.trace(sols.p_matrix[i])


@pytest.mark.parametrize(
    "n, spectral_radius, seed",
    [(2, 1.6, 281), (3, 1.6, 138), (3, 1.6, 52), (5, 1.5, 317371)],
    ids=["2-281", "3-138", "3-52", "5-317371"],
)
def test_solve_dare_converges_at_large_p(n, spectral_radius, seed):
    # ||P||_F from 9.2e4 to 3.4e6, where an absolute step of 1e-10 alone is
    # never reached.  On the last, nearly uncontrollable system the rounding
    # error of one value-iteration step stays above 64 eps ||P||_F, so value
    # iteration never met its stopping rule; doubling stops in a few steps.
    a, b, q, r = random_system(n, 1, spectral_radius, seed)
    p_ref = scipy.linalg.solve_discrete_are(a, b, q, r)
    assert np.linalg.norm(p_ref) > 5e4
    sol = solve_dare(ThetaParams(a, b), CostMatrices(q, r))
    assert np.linalg.norm(sol.p_matrix - p_ref) <= 1e-8 * np.linalg.norm(p_ref)


def binomial_grid():
    """Every count for small trial numbers, and a window around the 1 % and
    10 % quantiles, where the verdict flips, for large ones."""
    for trials in (1, 2, 3, 5, 10, 20, 50, 100, 200, 400, 1000, 5000, 20000):
        for target in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999):
            if trials <= 400:
                counts = set(range(trials + 1))
            else:
                counts = {0, trials - 1, trials}
                for level in (0.01, 0.1):
                    centre = int(binom.ppf(level, trials, target))
                    counts.update(range(max(0, centre - 8), min(trials, centre + 8) + 1))
            for successes in sorted(counts):
                yield successes, trials, target


@pytest.mark.parametrize("confidence", [0.99, 0.9])
def test_binomial_lower_test_matches_scipy(confidence):
    mismatches = [
        (s, n, p)
        for s, n, p in binomial_grid()
        if binomial_lower_test(s, n, p, confidence)
        != (float(binom.cdf(s, n, p)) >= 1.0 - confidence)
    ]
    assert mismatches == []


def test_package_imports_without_scipy():
    src = str(Path(tsodlqr.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, tsodlqr.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"
