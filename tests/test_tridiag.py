import numpy as np
import pytest

from weingarten.tridiag import CyclicReduction

# every level sequence of odd and even row counts up to 70 rows, and the
# counts on either side of 2^7 and 2^8
SIZES = list(range(1, 71)) + [127, 128, 129, 255, 256, 257]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("columns", [1, 3])
def test_matches_dense_solve(n, columns):
    # random diagonally dominant systems, each column with its own matrix
    rng = np.random.default_rng(1000 * columns + n)
    lower, upper = rng.uniform(-1.0, 1.0, (2, n, columns))
    main = (np.abs(lower) + np.abs(upper) + rng.uniform(0.1, 1.0, (n, columns))) \
        * rng.choice([-1.0, 1.0], (n, columns))
    d = rng.normal(size=(n, columns))
    x = CyclicReduction(lower, main, upper, columns).solve(d, np.empty_like(d))
    for j in range(columns):
        A = np.diag(main[:, j]) + np.diag(lower[1:, j], -1) + np.diag(upper[:-1, j], 1)
        ref = np.linalg.solve(A, d[:, j])
        assert np.linalg.norm(x[:, j] - ref) <= 1e-13 * np.linalg.norm(ref)


def test_one_matrix_for_every_column_in_place():
    # the [1, 4, 1] spline system, its coefficients one column for all five
    # right-hand sides, solved in place
    n = 40
    d = np.random.default_rng(0).normal(size=(n, 5))
    ones = np.ones((n, 1))
    ref = np.linalg.solve(4.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1), d)
    assert CyclicReduction(ones, 4.0 * ones, ones, 5).solve(d, out=d) is d
    assert np.max(np.abs(d - ref)) <= 1e-14 * np.max(np.abs(ref))
