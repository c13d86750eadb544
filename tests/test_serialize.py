"""Deterministic emission: the one-pass trace writer against write_csv."""

import numpy as np
import pytest

from duality_bench.serialize import write_csv, write_trace_csv

HEADER = ["cycle", "block1_dim1", "block2_dim1", "block2_dim2"]


def csv_bytes(path, samples, first_cycle):
    rows = [[first_cycle + r, *samples[r]] for r in range(samples.shape[0])]
    write_csv(path, HEADER[:1 + samples.shape[1]], rows)
    return path.read_bytes()


@pytest.mark.parametrize("samples", [
    np.array([[-0.0, 5e-324, 1e-300],
              [1e300, 3.0, -7.0],
              [0.1, -2.5e-8, 123456789.0],
              [0.0, -1e300, 1.0 / 3.0]]),
    np.array([[0.0, 2.0], [1.0, 0.0], [1.0, 1.0]]),   # a discrete trace
], ids=["continuous", "discrete"])
def test_trace_bytes_equal_write_csv(tmp_path, samples):
    header = HEADER[:1 + samples.shape[1]]
    write_trace_csv(tmp_path / "trace.csv", header, 11, samples)
    assert (tmp_path / "trace.csv").read_bytes() == csv_bytes(tmp_path / "ref.csv", samples, 11)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_sample_raises(tmp_path, bad):
    samples = np.array([[0.5, 1.0], [bad, 2.0]])
    with pytest.raises(ValueError, match="non-finite value"):
        write_trace_csv(tmp_path / "trace.csv", HEADER[:3], 1, samples)
    assert not (tmp_path / "trace.csv").exists()
