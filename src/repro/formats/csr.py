"""Compressed Sparse Row (CSR) format — the Sputnik baseline's format.

CSR compresses the row coordinate of COO into an index-pointer array.  It is
the standard format of GPU sparse libraries (cuSPARSE, Sputnik); the paper
uses Sputnik as the unstructured-sparsity kernel baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import FormatError, ShapeError


@dataclass(frozen=True)
class CsrMatrix:
    """An ``m x k`` matrix in compressed-sparse-row layout."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        m, k = self.shape
        if self.indptr.ndim != 1 or self.indptr.size != m + 1:
            raise FormatError(f"indptr must have length m+1 = {m + 1}")
        if self.indices.shape != self.data.shape or self.indices.ndim != 1:
            raise FormatError("indices/data must be 1-D and equal length")
        if int(self.indptr[-1]) != self.data.size:
            raise FormatError("indptr[-1] must equal nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise FormatError("indptr must be non-decreasing")
        if self.indices.size and self.indices.max() >= k:
            raise FormatError("column index out of bounds")

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CsrMatrix":
        if dense.ndim != 2:
            raise ShapeError("from_dense expects a 2-D array")
        m, _ = dense.shape
        rows, cols = np.nonzero(dense)
        counts = np.bincount(rows, minlength=m)
        indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        return cls(indptr=indptr, indices=cols.astype(np.int64),
                   data=dense[rows, cols].copy(), shape=dense.shape)

    def to_dense(self) -> np.ndarray:
        m, k = self.shape
        out = np.zeros((m, k), dtype=self.data.dtype)
        rows = np.repeat(np.arange(m), np.diff(self.indptr))
        out[rows, self.indices] = self.data
        return out

    @property
    def nnz(self) -> int:
        return int(self.data.size)

    @property
    def density(self) -> float:
        m, k = self.shape
        return self.nnz / (m * k) if m * k else 0.0

    def nbytes(self, value_bytes: int = 2, index_bytes: int = 4) -> int:
        return (self.nnz * (value_bytes + index_bytes)
                + self.indptr.size * index_bytes)

    def matmul(self, dense_rhs: np.ndarray) -> np.ndarray:
        """``self @ dense_rhs`` with per-row gather (Sputnik's access shape)."""
        m, k = self.shape
        if dense_rhs.shape[0] != k:
            raise ShapeError(
                f"rhs rows {dense_rhs.shape[0]} != matrix cols {k}")
        rows = np.repeat(np.arange(m), np.diff(self.indptr))
        out = np.zeros((m, dense_rhs.shape[1]), dtype=np.float64)
        np.add.at(out, rows,
                  self.data[:, None].astype(np.float64)
                  * dense_rhs[self.indices].astype(np.float64))
        return out.astype(np.result_type(self.data, dense_rhs))
