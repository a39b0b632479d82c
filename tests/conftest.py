"""Shared fixtures: worked instances and an independent brute-force oracle."""

import numpy as np
import pytest

from qrobust import QuboInstance, ScenarioGenerators

# 5-variable sensitivity demo: variable 3 is diagonally dominant with slack 8,
# the unique maximum is 288 at (0, 1, 0, 1, 1).
DEMO5_COEFFS = {
    (0, 0): 50.0, (0, 1): -75.0, (0, 2): 50.0, (0, 3): -15.0,
    (1, 1): 100.0, (1, 3): -5.0,
    (2, 2): 100.0, (2, 3): -25.0, (2, 4): -120.0,
    (3, 3): 100.0, (3, 4): -1.0,
    (4, 4): 100.0,
}

# Nine yes/no business decisions with two coefficient settings each
# (strategic vs tactical net-income effects).  Decisions 0..3 are mutually
# exclusive product strategies; the large negative ties keep any two of them
# from being selected together and are identical in both settings.
BUSINESS_VARYING = {
    (0, 0): (-5, 2), (1, 1): (2, 2), (2, 2): (-3, 6), (3, 3): (5, 2),
    (4, 4): (-1, 1), (5, 5): (2, 0), (6, 6): (2, -2), (7, 7): (2, -2),
    (8, 8): (5, -4),
    (0, 4): (1, 3), (0, 6): (5, -3), (0, 7): (3, -3), (0, 8): (0, -5),
    (1, 5): (6, -1), (1, 6): (3, 0), (1, 7): (3, 0), (2, 5): (1, 3),
    (3, 5): (7, 1), (3, 6): (0, -3), (3, 7): (1, -1), (3, 8): (6, -7),
    (5, 8): (9, -5), (6, 7): (7, 3),
}
BUSINESS_PENALTIES = {
    (i, j): (-100.0, -100.0) for i in range(4) for j in range(i + 1, 4)
}


def make_demo5() -> QuboInstance:
    return QuboInstance(5, dict(DEMO5_COEFFS), name="demo5")


def make_business_generators() -> ScenarioGenerators:
    entries = dict(BUSINESS_VARYING)
    entries.update(BUSINESS_PENALTIES)
    return ScenarioGenerators(n=9, entries=entries)


@pytest.fixture
def demo5() -> QuboInstance:
    return make_demo5()


@pytest.fixture
def business_gen() -> ScenarioGenerators:
    return make_business_generators()


def random_instance(rng: np.random.Generator, n: int, density: float) -> QuboInstance:
    """Random integer instance; coefficients uniform in [-100, 100]."""
    coeffs = {}
    for i in range(n):
        for j in range(i, n):
            if rng.random() < density:
                v = int(rng.integers(-100, 101))
                if v:
                    coeffs[(i, j)] = float(v)
    return QuboInstance(n, coeffs)


def enumerate_all_values(instance: QuboInstance) -> np.ndarray:
    """Objective of every assignment via dense expansion, standard binary order.

    Independent of the package's solve paths and of ``to_dense``: the full
    symmetric matrix is filled from the coefficient mapping, x Q x per row,
    assignment t has bit k of t as variable k.
    """
    n = instance.n
    q = np.zeros((n, n))
    for (i, j), v in instance.coefficients.items():
        q[i, j] = q[j, i] = v
    total = 1 << n
    shifts = np.arange(n)
    vals = np.empty(total)
    block = 1 << min(16, n)
    for t0 in range(0, total, block):
        ts = np.arange(t0, min(t0 + block, total), dtype=np.int64)
        x = ((ts[:, None] >> shifts) & 1).astype(float)
        vals[t0 : t0 + ts.size] = np.einsum("ij,jk,ik->i", x, q, x)
    return vals


def brute_force_max(instance: QuboInstance) -> float:
    return float(enumerate_all_values(instance).max())


def brute_force_optima(instance: QuboInstance) -> tuple[float, list[tuple[int, ...]]]:
    """Maximum value and every assignment attaining it."""
    vals = enumerate_all_values(instance)
    best = float(vals.max())
    winners = [
        tuple((int(t) >> k) & 1 for k in range(instance.n))
        for t in np.where(vals == best)[0]
    ]
    return best, winners
