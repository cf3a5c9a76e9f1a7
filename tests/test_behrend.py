"""Progression-poor interval sets: exact verification and the grid oracle."""

from fractions import Fraction as F

import numpy as np
import pytest

from rigidlab.behrend import behrend_certificate, behrend_set, verify_behrend
from rigidlab.circleset import CircleSet
from rigidlab.errors import ConstructionFailed


class TestVerify:
    def test_empty(self):
        assert verify_behrend(CircleSet.empty(), 3) == (0, 0)

    def test_full_circle_fails_reportedly(self):
        value, bound = verify_behrend(CircleSet.full(), 3)
        assert value == 1 and bound == F(1, 2)
        assert value > bound  # reported, not raised

    def test_tenth_interval(self):
        value, bound = verify_behrend(CircleSet.interval(0, F(1, 10)), 1)
        assert value == F(1, 200)
        assert bound == F(1, 20)
        assert value <= bound


class TestConstruction:
    @pytest.mark.parametrize("ell", (1, 2, 3))
    def test_constructible(self, ell):
        B, value, bound = behrend_certificate(ell)
        assert (value, bound) == verify_behrend(B, ell)
        assert value <= bound
        assert behrend_set(ell) == B

    def test_infeasible_range_raises(self):
        # The same-interval floor sum(w_i^2)/2 makes ell >= 4 demand
        # progression-free patterns denser than any enumerable grid offers.
        for ell in (4, 5):
            for construct in (behrend_certificate, behrend_set):
                with pytest.raises(ConstructionFailed):
                    construct(ell)


class TestGridOracle:
    def test_exact_value_within_grid_error(self):
        """2000 x 2000 midpoint quadrature agrees within its proven bound.

        The integrand is a 0/1 product whose discontinuity set consists of
        straight lines in three directions; each line crosses at most
        (1 + slope) M cells, so the quadrature error is bounded by the number
        of cut cells over M^2.
        """
        M = 2000
        for ell in (1, 3):
            B = behrend_set(ell)
            exact, _ = verify_behrend(B, ell)
            ends = np.array([float(u) for u, v in B.intervals] +
                            [float(v) for u, v in B.intervals])
            lo = np.array([float(u) for u, _ in B.intervals])
            hi = np.array([float(v) for _, v in B.intervals])

            def inb(x):
                x = x % 1.0
                return ((x[..., None] >= lo) & (x[..., None] < hi)).any(-1)

            pts = (np.arange(M) + 0.5) / M
            ys = pts[:, None]
            zs = pts[None, :]
            total = (inb(ys) & inb(ys + zs) & inb(ys + 2 * zs)).mean()
            n_lines = 2 * len(B.intervals)
            cut_cells = n_lines * M * (1 + 2 + 3)  # slopes 0, -1, -1/2
            bound = cut_cells / (M * M)
            assert abs(float(exact) - total) <= bound
