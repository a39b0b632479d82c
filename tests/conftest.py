"""Shared fixtures: worked instances, an independent brute-force oracle and the reference fold."""

import numpy as np
import pytest

from qrobust import QuboInstance, ScenarioGenerators
from qrobust.preprocess import _classify

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


@pytest.fixture
def dispatch(request, monkeypatch):
    """Send analyses above ``enum_threshold`` at jobs > 1 "in process" or to the "pool".

    Parametrize it indirectly with one of the two.  The work estimate of
    ``pipeline._pool_pays`` keeps the small test analyses in process, and
    a free worker start makes the pool pay.  Teardown checks that every
    dispatch took that path.
    """
    from qrobust import pipeline

    pooled = request.param == "pool"
    if pooled:
        method = pipeline._POOL_CONTEXT.get_start_method()
        monkeypatch.setitem(pipeline._WORKER_START_S, method, 0.0)
    rule, choices = pipeline._pool_pays, []

    def recorded(*args):
        choices.append(rule(*args))
        return choices[-1]

    monkeypatch.setattr(pipeline, "_pool_pays", recorded)
    yield request.param
    assert choices and set(choices) == {pooled}


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


# draws of one coefficient: uniform floats, tenths (which round) and integers
def uniform(rng) -> float:
    return float(rng.uniform(-10.0, 10.0))


def tenths(rng) -> float:
    return float(rng.integers(-9, 10)) * 0.1


def integers(rng) -> float:
    return float(rng.integers(-9, 10))


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


# The reference fold: the compacted fold the package ran before it kept one
# masked, batched fold (``preprocess._fold``).  Each round cuts the fixed
# variables out of the matrix, so its row sums run over ever smaller dense
# matrices, and the tests check the package's fold against it.


def _sign_sums(o: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The doubled negative and positive row sums N and P of the ``preprocess`` docstring.

    They are taken as column sums of the symmetric, compacted ``o``, which
    numpy adds up one row at a time, so each runs in ascending index order.
    """
    return 2.0 * np.minimum(o, 0.0).sum(axis=0), 2.0 * np.maximum(o, 0.0).sum(axis=0)


def _fold_fixed(
    d: np.ndarray, o: np.ndarray, bit: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Fold the variables with ``bit`` 0 or 1 out of (d, o) as ``reduce_instance`` does.

    Returns the constant, the survivors' positions and their (d, o).  The
    folded diagonals add column sums in ascending index order, as
    ``_sign_sums`` does.
    """
    keep = (bit < 0).nonzero()[0]
    s1 = (bit == 1).nonzero()[0]
    ones = o.take(s1, axis=0)
    constant = float(d[s1].sum() + ones.take(s1, axis=1).sum())
    d = d[keep] + (2.0 * ones.sum(axis=0)[keep] if s1.size else 0.0)
    return constant, keep, d, o.take(keep, axis=0).take(keep, axis=1)


def _fold(d: np.ndarray, o: np.ndarray, constant: float = 0.0) -> tuple:
    """Fix whatever ``_classify`` decides and fold it out, repeating to a fixpoint.

    Each round classifies the survivors against the current folded matrix
    and fixes all that a rule decides at once.  Returns (steps, constant,
    survivors, d, o, delta): one (positions, bits, strict, deltas) step per
    fixing round in ascending position, ``constant`` plus every round's
    constant, the survivors' positions and folded (d, o), and their slack
    in the final scan, which fixed nothing.  Positions index the input.
    """
    survivors = np.arange(d.size)
    steps = []
    while True:
        delta, bit, strict = _classify(d, *_sign_sums(o))
        fixed = bit >= 0
        if not fixed.any():
            return steps, constant, survivors, d, o, delta
        hit = fixed.nonzero()[0]
        steps.append((survivors[hit], bit[hit], strict[hit], delta[hit]))
        step, keep, d, o = _fold_fixed(d, o, bit)
        constant += step
        survivors = survivors[keep]
