"""Unit tests for the edge-code format of :mod:`repro.dynamic.duals`."""

import numpy as np

from repro.dynamic.duals import decode_edge_codes, encode_edge_codes, sorted_duals


def _code(u, v):
    return int(encode_edge_codes(np.array([u]), np.array([v]))[0])


class TestSortedDuals:
    def test_sorted_by_canonical_key(self):
        duals = {_code(5, 9): 3.0, _code(0, 1): 1.0, _code(0, 7): 2.0}
        codes, vals = sorted_duals(duals)
        u, v = decode_edge_codes(codes)
        assert list(zip(u.tolist(), v.tolist())) == [(0, 1), (0, 7), (5, 9)]
        assert vals.tolist() == [1.0, 2.0, 3.0]
        assert codes.dtype == np.int64 and vals.dtype == np.float64

    def test_empty(self):
        codes, vals = sorted_duals({})
        assert codes.shape == (0,) and codes.dtype == np.int64
        assert vals.shape == (0,) and vals.dtype == np.float64


class TestArrayIO:
    def test_encode_decode_inverse(self):
        u = np.array([0, 17, 2**31 - 2], dtype=np.int64)
        v = np.array([1, 99, 2**31 - 1], dtype=np.int64)
        du, dv = decode_edge_codes(encode_edge_codes(u, v))
        assert du.tolist() == u.tolist()
        assert dv.tolist() == v.tolist()

    def test_code_order_equals_lexicographic_key_order(self):
        pairs = [(0, 5), (0, 2), (3, 4), (1, 100), (1, 2)]
        codes = encode_edge_codes(
            np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])
        )
        by_code = [pairs[i] for i in np.argsort(codes)]
        assert by_code == sorted(pairs)
