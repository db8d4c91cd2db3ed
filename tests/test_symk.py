import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weingarten.symk import (
    InadmissibleError,
    F_eval,
    gamma_cone_contains,
    identity_residuals,
    newton_maclaurin_check,
    quadratic_form,
    quadratic_form_terms,
    sigma,
    sigma_all,
)


def brute_sigma(lam, k):
    # subset-enumeration oracle
    lam = list(lam)
    if k == 0:
        return 1.0
    if k > len(lam):
        return 0.0
    return float(sum(np.prod(c) for c in itertools.combinations(lam, k)))


def excl(lam, k, i):
    # exclusion value sigma_k(lam | i): sigma_k of the other entries
    return brute_sigma(np.delete(lam, i), k)


def trace_F(lam, k):
    # trace of dF with respect to the matrix argument: sum_i dF/dlam_i
    return float(F_eval(lam, k).grad.sum())


def F_matrix(A, k):
    lam = np.linalg.eigvalsh(A)
    return brute_sigma(lam, k) ** (1.0 / k)


lam_vectors = st.lists(
    st.floats(min_value=-2.0, max_value=2.0), min_size=2, max_size=6
)


class TestSigma:
    def test_examples(self):
        assert sigma([3, 2, 1], 1) == 6.0
        assert sigma([3, 2, 1], 2) == pytest.approx(brute_sigma([3, 2, 1], 2))  # 11
        assert sigma([3, 2, 1], 2) == 11.0
        assert sigma([3, 2, 1], 3) == 6.0
        assert sigma([3, 2, 1], 0) == 1.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            sigma([1.0, 2.0], 3)
        with pytest.raises(ValueError):
            sigma([1.0, 2.0], -1)

    @given(lam=lam_vectors)
    @settings(max_examples=150, deadline=None)
    def test_against_enumeration(self, lam):
        lam = np.asarray(lam)
        e = sigma_all(lam)
        for k in range(lam.size + 1):
            b = brute_sigma(lam, k)
            assert e[k] == pytest.approx(b, rel=1e-12, abs=1e-12)


class TestIdentities:
    def test_worked_example(self):
        # sigma_2 = sigma_2(lam|1) + lam_1 sigma_1(lam|1): 11 = 2 + 3*3
        lam = [3.0, 2.0, 1.0]
        assert sigma(lam, 2) == pytest.approx(excl(lam, 2, 0) + 3 * excl(lam, 1, 0))
        # sum lam_i sigma_1(lam|i) = 2 sigma_2 = 22
        total = sum(lam[i] * excl(lam, 1, i) for i in range(3))
        assert total == pytest.approx(22.0)

    def test_symmetric_vector(self):
        lam = [0.9] * 4
        for k in range(3):
            total = sum(excl(lam, k, i) for i in range(4))
            assert total == pytest.approx((4 - k) * sigma(lam, k), rel=1e-13)

    @given(lam=lam_vectors)
    @settings(max_examples=150, deadline=None)
    def test_residuals_vanish(self, lam):
        lam = np.asarray(lam)
        for k in range(lam.size):
            assert np.max(identity_residuals(lam, k)) <= 1e-10

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            identity_residuals([1.0, 2.0], 2)


class TestBatch:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_rows_match_single_vectors(self, n):
        lams = np.random.default_rng(10 + n).uniform(-2.0, 2.0, (50, n))
        e = sigma_all(lams)
        assert e.shape == (50, n + 1)
        for v, lam in enumerate(lams):
            assert np.array_equal(e[v], sigma_all(lam))
        for k in range(n):
            r = identity_residuals(lams, k)
            assert r.shape == (50, 5)
            for v, lam in enumerate(lams):
                assert np.array_equal(r[v], identity_residuals(lam, k))

    def test_leading_axes_kept(self):
        lams = np.random.default_rng(9).uniform(-2.0, 2.0, (2, 3, 4))
        assert sigma_all(lams).shape == (2, 3, 5)
        assert identity_residuals(lams, 1).shape == (2, 3, 5)

    @pytest.mark.parametrize("fn", [lambda lam: sigma(lam, 1), lambda lam: F_eval(lam, 1)])
    def test_scalar_functions_reject_batches(self, fn):
        with pytest.raises(ValueError):
            fn(np.ones((2, 3)))

    def test_rejects_scalars_and_empty_vectors(self):
        for bad in (1.0, [], np.ones((3, 0))):
            with pytest.raises(ValueError):
                sigma_all(bad)


class TestGammaCone:
    def test_examples(self):
        assert gamma_cone_contains([2, 1, -0.5], 2) is True
        assert gamma_cone_contains([1, 1, -1], 2) is False
        assert gamma_cone_contains([3, -1], 1) is True

    @given(lam=lam_vectors, k=st.integers(min_value=2, max_value=6))
    @settings(max_examples=100, deadline=None)
    def test_nesting(self, lam, k):
        lam = np.asarray(lam)
        if k > lam.size:
            k = lam.size
        if gamma_cone_contains(lam, k):
            for l in range(1, k):
                assert gamma_cone_contains(lam, l)


class TestFEval:
    def test_worked_example(self):
        fe = F_eval([3.0, 2.0, 1.0], 2)
        assert fe.F == pytest.approx(math.sqrt(11.0), rel=1e-14)
        assert fe.grad[0] == pytest.approx(3.0 / (2.0 * math.sqrt(11.0)), rel=1e-13)

    def test_linear_case(self):
        fe = F_eval([0.4, 0.4], 1)
        assert fe.F == pytest.approx(0.8)
        assert np.allclose(fe.grad, 1.0)
        assert np.max(np.abs(fe.hess)) == 0.0

    def test_symmetric_top_order(self):
        fe = F_eval([1.0, 1.0, 1.0], 3)
        assert fe.F == pytest.approx(1.0)
        assert np.allclose(fe.grad, 1.0 / 3.0)

    def test_inadmissible(self):
        with pytest.raises(InadmissibleError):
            F_eval([1.0, -2.0], 2)

    def _fd_grad(self, lam, k, d=1e-6):
        lam = np.asarray(lam, dtype=float)
        out = np.zeros_like(lam)
        for i in range(lam.size):
            lp, lm = lam.copy(), lam.copy()
            lp[i] += d
            lm[i] -= d
            out[i] = (brute_sigma(lp, k) ** (1 / k) - brute_sigma(lm, k) ** (1 / k)) / (2 * d)
        return out

    def test_gradient_against_fd(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(1, n + 1))
            lam = rng.uniform(0.2, 2.0, n)  # positive: inside every cone
            fe = F_eval(lam, k)
            fd = self._fd_grad(lam, k)
            assert np.max(np.abs(fe.grad - fd)) < 1e-6 * max(1.0, np.max(np.abs(fd)))
            assert np.all(fe.grad > 0)

    def test_hessian_against_fd(self):
        rng = np.random.default_rng(1)
        for _ in range(15):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(1, n + 1))
            lam = rng.uniform(0.3, 2.0, n)
            fe = F_eval(lam, k)
            d = 1e-4
            for i in range(n):
                for j in range(n):
                    lpp, lpm, lmp, lmm = (lam.copy() for _ in range(4))
                    lpp[i] += d; lpp[j] += d
                    lpm[i] += d; lpm[j] -= d
                    lmp[i] -= d; lmp[j] += d
                    lmm[i] -= d; lmm[j] -= d
                    fd = (
                        brute_sigma(lpp, k) ** (1 / k)
                        - brute_sigma(lpm, k) ** (1 / k)
                        - brute_sigma(lmp, k) ** (1 / k)
                        + brute_sigma(lmm, k) ** (1 / k)
                    ) / (4 * d * d)
                    assert fe.hess[i, j] == pytest.approx(fd, rel=2e-5, abs=2e-5)


class TestQuadraticForm:
    def test_linear_vanishes(self):
        rng = np.random.default_rng(2)
        eta = rng.normal(size=(3, 3))
        eta = 0.5 * (eta + eta.T)
        assert quadratic_form([2.0, 1.0, 0.5], 1, eta) == pytest.approx(0.0, abs=1e-14)

    def test_identity_perturbation_is_pure_hessian(self):
        lam = [3.0, 2.0, 1.0]
        fe = F_eval(lam, 2)
        q = quadratic_form(lam, 2, np.eye(3))
        assert q == pytest.approx(float(np.sum(fe.hess)), rel=1e-13)

    def test_offdiagonal_perturbation(self):
        lam = [3.0, 2.0, 1.0]
        fe = F_eval(lam, 2)
        eta = np.zeros((3, 3))
        eta[0, 1] = eta[1, 0] = 1.0
        expected = 2.0 * (fe.grad[0] - fe.grad[1]) / (lam[0] - lam[1])
        assert quadratic_form(lam, 2, eta) == pytest.approx(expected, rel=1e-13)

    def _fd_matrix_form(self, lam, k, eta, s=1e-4):
        A0 = np.diag(lam)
        return (
            F_matrix(A0 + s * eta, k) - 2 * F_matrix(A0, k) + F_matrix(A0 - s * eta, k)
        ) / s ** 2

    def test_against_matrix_fd(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(1, n + 1))
            lam = np.sort(rng.uniform(0.3, 2.0, n))[::-1]
            while np.min(np.abs(np.diff(lam))) < 0.05:
                lam = np.sort(rng.uniform(0.3, 2.0, n))[::-1]
            eta = rng.normal(size=(n, n))
            eta = 0.5 * (eta + eta.T)
            got = quadratic_form(lam, k, eta)
            want = self._fd_matrix_form(lam, k, eta)
            assert got == pytest.approx(want, rel=1e-5, abs=1e-5)

    def test_equal_eigenvalue_limit(self):
        # limit branch agrees with the matrix path, which is smooth through ties;
        # the exact tie (gap 0) must not warn from the unused quotient
        lam = np.array([1.3, 1.3, 0.6])
        eta = np.zeros((3, 3))
        eta[0, 1] = eta[1, 0] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = quadratic_form(lam, 2, eta)
        want = self._fd_matrix_form(lam, 2, eta, s=1e-4)
        assert got == pytest.approx(want, rel=1e-4, abs=1e-6)

    def test_difference_quotient_nonpositive_on_cone(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(1, n + 1))
            lam = rng.uniform(0.1, 2.5, n)
            eta = rng.normal(size=(n, n))
            eta = 0.5 * (eta + eta.T)
            _, dq = quadratic_form_terms(lam, k, eta)
            assert dq <= 1e-12


class TestNewtonMaclaurin:
    def test_worked_example(self):
        ok, slack = newton_maclaurin_check([3.0, 2.0, 1.0], 2)
        assert ok
        assert slack == pytest.approx((11.0 / 3.0) ** 2 - 12.0, rel=1e-12)

    def test_equality_on_constant_vectors(self):
        for n in (2, 3, 5):
            for k in range(1, n):
                ok, slack = newton_maclaurin_check([1.3] * n, k)
                assert ok
                assert abs(slack) < 1e-12

    def test_mixed_sign_example(self):
        ok, _ = newton_maclaurin_check([2.0, 1.0, -0.5], 1)
        assert ok

    @given(lam=lam_vectors)
    @settings(max_examples=150, deadline=None)
    def test_holds_for_all_real_vectors(self, lam):
        lam = np.asarray(lam)
        for k in range(1, lam.size):
            ok, _ = newton_maclaurin_check(lam, k)
            assert ok


class TestTrace:
    def test_examples(self):
        assert trace_F([1.0, 1.0], 1) == pytest.approx(2.0)
        assert trace_F([1.0, 1.0, 1.0], 3) == pytest.approx(1.0)

    def test_closed_form_agreement(self):
        lam = [3.0, 2.0, 1.0]
        n, k = 3, 2
        f = sigma(lam, k) ** (1.0 / k)
        closed = (n - k + 1) * sigma(lam, k - 1) / (k * f ** (k - 1))
        assert trace_F(lam, k) == pytest.approx(closed, rel=1e-13)
        assert trace_F(lam, k) == pytest.approx(12.0 / (2.0 * math.sqrt(11.0)), rel=1e-13)

    def test_positive_on_cone(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(1, n + 1))
            lam = rng.uniform(0.05, 2.0, n)
            assert trace_F(lam, k) > 0


class TestConcavity:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_midpoint_concavity(self, data):
        n = data.draw(st.integers(min_value=2, max_value=5))
        k = data.draw(st.integers(min_value=1, max_value=n))
        pos = st.floats(min_value=0.05, max_value=3.0)
        lam = np.array(data.draw(st.lists(pos, min_size=n, max_size=n)))
        mu = np.array(data.draw(st.lists(pos, min_size=n, max_size=n)))
        mid = F_eval(0.5 * (lam + mu), k).F
        assert mid >= 0.5 * (F_eval(lam, k).F + F_eval(mu, k).F) - 1e-12
