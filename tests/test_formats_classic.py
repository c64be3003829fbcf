"""COO and CSR unstructured formats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FormatError
from repro.formats import CooMatrix, CsrMatrix


def _sparse_dense(rng, m=16, k=24, density=0.3):
    dense = rng.normal(size=(m, k))
    dense[rng.random(size=(m, k)) > density] = 0.0
    return dense


class TestCoo:
    def test_roundtrip(self, rng):
        dense = _sparse_dense(rng)
        assert np.array_equal(CooMatrix.from_dense(dense).to_dense(),
                              dense)

    def test_nnz_and_density(self, rng):
        dense = _sparse_dense(rng)
        coo = CooMatrix.from_dense(dense)
        assert coo.nnz == np.count_nonzero(dense)
        assert coo.density == pytest.approx(coo.nnz / dense.size)

    def test_matmul_matches_dense(self, rng):
        dense = _sparse_dense(rng)
        rhs = rng.normal(size=(dense.shape[1], 8))
        assert np.allclose(CooMatrix.from_dense(dense).matmul(rhs),
                           dense @ rhs)

    def test_out_of_bounds_rejected(self):
        with pytest.raises(FormatError):
            CooMatrix(rows=np.array([5]), cols=np.array([0]),
                      data=np.array([1.0]), shape=(4, 4))

    def test_nbytes(self, rng):
        coo = CooMatrix.from_dense(_sparse_dense(rng))
        assert coo.nbytes() == coo.nnz * (2 + 8)


class TestCsr:
    def test_roundtrip(self, rng):
        dense = _sparse_dense(rng)
        assert np.array_equal(CsrMatrix.from_dense(dense).to_dense(),
                              dense)

    def test_matmul_matches_dense(self, rng):
        dense = _sparse_dense(rng)
        rhs = rng.normal(size=(dense.shape[1], 8))
        assert np.allclose(CsrMatrix.from_dense(dense).matmul(rhs),
                           dense @ rhs)

    def test_bad_indptr_rejected(self):
        with pytest.raises(FormatError):
            CsrMatrix(indptr=np.array([0, 2]), indices=np.array([0]),
                      data=np.array([1.0]), shape=(2, 4))

    def test_decreasing_indptr_rejected(self):
        with pytest.raises(FormatError):
            CsrMatrix(indptr=np.array([0, 2, 1]),
                      indices=np.array([0, 1]),
                      data=np.array([1.0, 2.0]), shape=(2, 4))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10 ** 6),
           m=st.integers(1, 12), k=st.integers(1, 12))
    def test_roundtrip_property(self, seed, m, k):
        rng = np.random.default_rng(seed)
        dense = _sparse_dense(rng, m=m, k=k, density=0.4)
        for cls in (CooMatrix, CsrMatrix):
            assert np.array_equal(cls.from_dense(dense).to_dense(), dense)
