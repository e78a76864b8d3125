import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from saddlekit.errors import NotSymmetric, RankDeficient
from saddlekit.linalg import (
    Frame,
    complete_frame,
    orthonormalize,
    qr_decompose,
    sym_eigen,
    unit,
)


class TestQR:
    def test_identity(self):
        q, r = qr_decompose(np.eye(3))
        npt.assert_allclose(q.columns, np.eye(3), atol=1e-14)
        npt.assert_allclose(r, np.eye(3), atol=1e-14)

    def test_single_column(self):
        # hand computation: |(3,4)| = 5, so Q = (0.6, 0.8), R = [5]
        q, r = qr_decompose(np.array([[3.0], [4.0]]))
        npt.assert_allclose(q.columns, np.array([[0.6], [0.8]]), atol=1e-14)
        npt.assert_allclose(r, np.array([[5.0]]), atol=1e-14)

    def test_round_trip_random(self, rng):
        m = rng.standard_normal((4, 2))
        q, r = qr_decompose(m)
        npt.assert_allclose(q.columns @ r, m, atol=1e-10 * np.linalg.norm(m))

    def test_round_trip_many(self, rng):
        for _ in range(25):
            rows = rng.integers(2, 8)
            cols = rng.integers(1, rows + 1)
            m = rng.standard_normal((rows, cols))
            q, r = qr_decompose(m)
            assert np.linalg.norm(q.columns @ r - m) <= 1e-10 * np.linalg.norm(m)
            assert np.all(np.diag(r) >= 0.0)

    def test_rank_deficient(self):
        m = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        with pytest.raises(RankDeficient):
            qr_decompose(m)


class TestSymEigen:
    def test_diagonal(self):
        w, v = sym_eigen(np.diag([1.0, -1.0, -3.0]))
        npt.assert_allclose(w, [1.0, -1.0, -3.0], atol=1e-14)
        npt.assert_allclose(v.columns, np.eye(3), atol=1e-14)

    def test_two_by_two(self):
        # characteristic polynomial of [[0,1],[1,0]] gives eigenvalues +-1
        w, v = sym_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
        npt.assert_allclose(w, [1.0, -1.0], atol=1e-14)
        s = 1.0 / np.sqrt(2.0)
        npt.assert_allclose(np.abs(v.columns), np.full((2, 2), s), atol=1e-14)

    def test_residual_random(self, rng):
        a = rng.standard_normal((5, 5))
        m = 0.5 * (a + a.T)
        w, v = sym_eigen(m)
        for i in range(5):
            res = np.linalg.norm(m @ v.columns[:, i] - w[i] * v.columns[:, i])
            assert res <= 1e-8
        recon = v.columns @ np.diag(w) @ v.columns.T
        assert np.linalg.norm(recon - m) <= 1e-8 * max(1.0, np.linalg.norm(m))

    def test_descending_order(self, rng):
        a = rng.standard_normal((6, 6))
        w, _ = sym_eigen(a + a.T)
        assert np.all(np.diff(w) <= 0.0)

    def test_sign_convention(self):
        w, v = sym_eigen(np.diag([2.0, 1.0]))
        for j in range(2):
            i = np.argmax(np.abs(v.columns[:, j]))
            assert v.columns[i, j] > 0.0

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            sym_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestCompleteFrame:
    def test_identity_prefix_fixed_point(self):
        v = Frame(np.eye(4)[:, :2])
        full = complete_frame(v)
        npt.assert_array_equal(full.columns, np.eye(4))

    def test_single_vector(self):
        v = Frame(np.array([[1.0], [1.0], [0.0]]) / np.sqrt(2.0))
        full = complete_frame(v)
        assert full.frame_dim == 3
        g = full.columns.T @ full.columns
        assert np.max(np.abs(g - np.eye(3))) <= 1e-12

    def test_input_columns_preserved_exactly(self, rng):
        m = rng.standard_normal((5, 2))
        v = orthonormalize(m)
        full = complete_frame(v)
        # bit-for-bit: completion must not touch the input columns
        assert np.array_equal(full.columns[:, :2], v.columns)

    def test_orthonormality_random(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, n + 1))
            v = orthonormalize(rng.standard_normal((n, k)))
            full = complete_frame(v)
            g = full.columns.T @ full.columns
            assert np.max(np.abs(g - np.eye(n))) <= 1e-12

    def test_perturbation_trend(self, rng):
        # completions of near-identity frames stay near the identity, and the
        # distance shrinks with the perturbation
        n, k = 5, 3
        g = rng.standard_normal((n, k))
        errs = []
        for delta in (1e-2, 1e-4, 1e-6):
            v = orthonormalize(np.eye(n)[:, :k] + delta * g)
            full = complete_frame(v)
            errs.append(np.max(np.abs(full.columns - np.eye(n))))
        assert errs[0] > errs[1] > errs[2]

    @settings(max_examples=120, derandomize=True, database=None, deadline=None)
    @example(nk=(256, 4), kind="random", seed=0)
    @given(
        nk=st.integers(2, 64).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, min(n, 4)))),
        kind=st.sampled_from(["random", "coordinate", "contains-e1"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_completion_keeps_the_input_and_is_orthonormal(self, nk, kind, seed):
        n, k = nk
        rng = np.random.default_rng(seed)
        if kind == "random":
            v = orthonormalize(rng.standard_normal((n, k))).columns
        elif kind == "coordinate":
            v = np.eye(n)[:, n - k:]
        else:
            v = np.zeros((n, k))
            v[0, 0] = 1.0
            if k > 1:
                v[1:, 1:] = orthonormalize(rng.standard_normal((n - 1, k - 1))).columns
        full = complete_frame(Frame(v)).columns
        assert full.shape == (n, n)
        assert full[:, :k].tobytes() == v.tobytes()
        assert np.max(np.abs(full.T @ full - np.eye(n))) <= 1e-12

    def test_fallback_on_spanned_elementary(self):
        # frame already contains e1, so the completion must avoid it
        v = Frame(np.eye(3)[:, [1]])
        full = complete_frame(v)
        g = full.columns.T @ full.columns
        assert np.max(np.abs(g - np.eye(3))) <= 1e-12


class TestFrame:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            Frame(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_wide(self):
        with pytest.raises(ValueError):
            Frame(np.eye(2, 3))

    def test_unit_zero_vector(self):
        with pytest.raises(ValueError):
            unit(np.zeros(3))
