"""Decomposition contracts."""

import pytest

from duality_bench import make_decomposition


class TestMakeDecomposition:
    def test_smallest_legal(self):
        dec = make_decomposition([1, 1])
        assert dec.n_blocks == 2
        assert dec.total_dim == 2
        assert dec.block_offsets == (0, 1)

    def test_prefix_sums(self):
        dec = make_decomposition([2, 3, 1])
        assert dec.n_blocks == 3
        assert dec.total_dim == 6
        assert dec.block_offsets == (0, 2, 5)

    def test_single_block_rejected(self):
        with pytest.raises(ValueError, match="K must exceed 1"):
            make_decomposition([1])

    @pytest.mark.parametrize("dims", [[0, 1], [2, -1], [1, 0, 3]])
    def test_nonpositive_dims_rejected(self, dims):
        with pytest.raises(ValueError):
            make_decomposition(dims)
