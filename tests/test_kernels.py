import numpy as np
import pytest

from saddlekit import kernels
from saddlekit.kernels import max_separation_pair


def brute_reference(pts):
    best = (-1, -1, -1.0)
    for i in range(len(pts) - 1):
        for j in range(i + 1, len(pts)):
            d = float(np.linalg.norm(pts[i] - pts[j]))
            if d > best[2]:
                best = (i, j, d)
    return best


def point_sets(rng, n, k):
    """Random, integer-lattice, collinear and duplicated sets of n points in R^k."""
    sets = {
        "random": rng.standard_normal((n, k)),
        # a small lattice: many exactly equal distances, and repeated points
        "lattice": rng.integers(-3, 4, size=(n, k)).astype(float),
        "collinear": np.outer(rng.standard_normal(n), rng.standard_normal(k)) + rng.standard_normal(k),
    }
    base = rng.standard_normal((max(n // 2, 1), k))
    sets["duplicated"] = base[rng.integers(0, len(base), n)]
    if k == 3:
        sets["coplanar"] = rng.standard_normal((n, 2)) @ rng.standard_normal((2, 3))
    return sets


class TestMaxSeparationPair:
    def test_matches_reference(self, rng):
        pts = rng.standard_normal((60, 3))
        i, j, d = max_separation_pair(pts)
        ri, rj, rd = brute_reference(pts)
        assert (i, j) == (ri, rj)
        assert d == pytest.approx(rd, rel=1e-14)

    def test_fallback_matches_reference(self, rng):
        # the full scan serves 1-D, tiny and degenerate sets
        pts = rng.standard_normal((60, 2))
        assert kernels._full_scan(pts)[:2] == brute_reference(pts)[:2]

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3, 4, 17, 257, 1000])
    def test_hull_matches_full_scan(self, n, k):
        # identical (i, j, dist): the same pair, tie-broken the same way, with
        # the same rounding; several draws, since a repeated vertex or a
        # near-tie decided by rounding shows up in only some of them
        for draw in range(8):
            rng = np.random.default_rng([k, n, draw])
            for name, pts in point_sets(rng, n, k).items():
                expected = kernels._full_scan(pts)
                assert max_separation_pair(pts) == expected, (name, draw)

    def test_rounding_does_not_depend_on_the_set(self):
        # two widest pairs tie exactly, the second the first turned by 90 degrees
        # and put in the last rows, which BLAS syrk rounds unlike gemm
        for draw in range(20):
            rng = np.random.default_rng([300, draw])
            pts = rng.uniform(-1.0, 1.0, (300, 2))
            a, b = rng.uniform(2.0, 3.0, 2), -rng.uniform(2.0, 3.0, 2)
            pts[0], pts[1] = a, b
            pts[-2], pts[-1] = [-a[1], a[0]], [-b[1], b[0]]
            assert max_separation_pair(pts) == kernels._full_scan(pts), draw

    def test_blocking_boundaries(self, rng):
        # chunked evaluation of the full scan across block edges
        pts = rng.standard_normal((1030, 2))
        fi, fj, fd = kernels._full_scan(pts, block=256)
        gi, gj, gd = kernels._full_scan(pts, block=1030)
        assert (fi, fj, fd) == (gi, gj, gd)

    def test_degenerate_inputs(self):
        assert max_separation_pair(np.zeros((0, 2))) == (-1, -1, 0.0)
        assert max_separation_pair(np.zeros((1, 2))) == (-1, -1, 0.0)
        i, j, d = max_separation_pair(np.zeros((5, 2)))
        assert d == 0.0

    def test_duplicate_points(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        _, _, d = max_separation_pair(pts)
        assert d == pytest.approx(1.0)
