"""Metadata re-packing for 32-bit-aligned loads (§4.4, Figure 10).

The 2-bit metadata matrix cannot go through ``ldmatrix`` (which moves
16-bit lanes), so Samoyeds re-arranges each 16x16 2-bit metadata tile in
device memory such that the 16 values each thread needs for one
``mma.sp.m16n8k32`` land in one contiguous 32-bit word.

The paper gives the mapping:
``[row, col] -> [row % 8 * 2 + col // 8, col % 8 + row // 8 * 8]``.
This module implements the forward/backward permutations, verifies they
are inverse bijections (tested property-based), and exposes the
transaction-count model that motivates the layout.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError

TILE = 16   #: metadata tiles are 16x16 2-bit values


def _check_tile(tile: np.ndarray) -> None:
    if tile.shape != (TILE, TILE):
        raise ShapeError(
            f"metadata packing operates on {TILE}x{TILE} tiles, "
            f"got {tile.shape}")


def packed_coordinates(row: np.ndarray | int,
                       col: np.ndarray | int) -> tuple[np.ndarray, np.ndarray]:
    """Figure 10's [row, col] -> [row', col'] mapping."""
    row = np.asarray(row)
    col = np.asarray(col)
    new_row = (row % 8) * 2 + col // 8
    new_col = col % 8 + (row // 8) * 8
    return new_row, new_col


def pack_metadata_tile(tile: np.ndarray) -> np.ndarray:
    """Re-arrange one 16x16 metadata tile into the packed layout."""
    _check_tile(tile)
    rows, cols = np.meshgrid(np.arange(TILE), np.arange(TILE), indexing="ij")
    new_rows, new_cols = packed_coordinates(rows, cols)
    packed = np.empty_like(tile)
    packed[new_rows, new_cols] = tile
    return packed


def unpack_metadata_tile(packed: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pack_metadata_tile`."""
    _check_tile(packed)
    rows, cols = np.meshgrid(np.arange(TILE), np.arange(TILE), indexing="ij")
    new_rows, new_cols = packed_coordinates(rows, cols)
    tile = np.empty_like(packed)
    tile[rows, cols] = packed[new_rows, new_cols]
    return tile


def metadata_load_transactions(tiles: int, packed: bool,
                               transaction_bits: int = 32) -> int:
    """Memory transactions to feed ``tiles`` metadata tiles to the SpTC.

    Packed layout: every thread reads one aligned 32-bit word per tile
    half -> 2 transactions of useful data per tile row-pair, i.e. the
    minimum of ``TILE*TILE*2 / 32`` words.

    Unpacked layout: each thread's 16 values are strewn across 8 separate
    words (4 consecutive 2-bit values per word before crossing a row), so
    it touches 4x the words.
    """
    if tiles < 0:
        raise ShapeError("tiles must be non-negative")
    words_needed = TILE * TILE * 2 // transaction_bits
    if packed:
        return tiles * words_needed
    scatter_factor = 4   # 4 row-fragments per 32-bit word assembled
    return tiles * words_needed * scatter_factor
