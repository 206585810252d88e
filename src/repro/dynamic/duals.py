"""The edge-code format of the maintainer's per-edge duals.

The incremental engine carries a sparse fractional matching ``x_e`` over
the *current* edge set as one plain ``dict`` from an ``int64`` *edge code*
``(u << 32) | v`` (canonical ``u < v``) to the dual value — in the repair
kernel, the maintainer, state export/restore and the snapshot alike.  A
code hashes as one small int, and for ``u < v < 2**32`` code order *is*
lexicographic ``(u, v)`` order, so sorting codes sorts edges.

This module is that format: :func:`encode_edge_codes` /
:func:`decode_edge_codes` convert whole endpoint columns with two shifts
and a mask, and :func:`sorted_duals` turns a dual dict into the sorted
``(codes, values)`` arrays that state export and snapshots store.

Vertex ids must fit in an unsigned 32-bit lane (``0 <= v < 2**32``); the
dynamic-graph layer enforces the far stricter practical bound at
construction time.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

__all__ = ["decode_edge_codes", "encode_edge_codes", "sorted_duals"]

#: Bit width of the ``v`` lane inside an edge code.
_SHIFT = 32
_MASK = (1 << _SHIFT) - 1


def encode_edge_codes(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vectorized ``(u << 32) | v`` over canonical (``u < v``) endpoint arrays.

    Because both lanes are below ``2**32`` and ``u < v``, code order equals
    lexicographic ``(u, v)`` order — sorting codes sorts keys.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    return (u << _SHIFT) | v


def decode_edge_codes(codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`encode_edge_codes`: codes → ``(u, v)`` arrays."""
    codes = np.asarray(codes, dtype=np.int64)
    return codes >> _SHIFT, codes & _MASK


def sorted_duals(duals: Dict[int, float]) -> Tuple[np.ndarray, np.ndarray]:
    """``(codes, values)`` of a code-keyed dual dict, sorted by code.

    Code order is canonical ``(u, v)`` order, so the result is the same
    for every insertion history of one state.
    """
    if not duals:
        return np.empty(0, np.int64), np.empty(0, np.float64)
    codes = np.fromiter(duals.keys(), dtype=np.int64, count=len(duals))
    order = np.argsort(codes)
    codes = codes[order]
    values = np.fromiter(duals.values(), dtype=np.float64, count=len(duals))[order]
    return codes, values
