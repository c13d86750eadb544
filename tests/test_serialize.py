"""Deterministic emission: the one-pass trace writer against write_csv, and
the JSON emitter's float lists against item-by-item formatting."""

import numpy as np
import pytest

from duality_bench.serialize import (
    dumps_json,
    format_value,
    write_csv,
    write_json,
    write_trace_csv,
)

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


def items_json(items) -> str:
    """A flat list as the JSON emitter writes it item by item."""
    return "[" + ", ".join(format_value(v) for v in items) + "]"


FLOATS = [-0.0, 5e-324, 1e-300, 1e300, 0.1, 1.0 / 3.0, 1.0, -7.0, 1e308, 1e308]


@pytest.mark.parametrize("items", [
    FLOATS,
    tuple(FLOATS),
    [np.float64(v) for v in FLOATS],
    [1, 0.5, True, -2.0, np.int64(3), np.float64(0.25), False],
    [],
], ids=["floats", "tuple", "np-float64", "mixed", "empty"])
def test_float_list_bytes_equal_item_by_item(items):
    assert dumps_json(items) == items_json(items)
    assert dumps_json({"v": items}) == '{"v": ' + items_json(items) + "}"


def test_nested_float_lists_equal_item_by_item():
    assert dumps_json([1.0, -7.0, -0.0]) == "[1, -7, -0]"
    rows = [FLOATS[:5], FLOATS[5:], [], [2.0]]
    assert dumps_json(rows) == "[" + ", ".join(items_json(r) for r in rows) + "]"
    assert dumps_json(np.array(rows[:2])) == dumps_json(rows[:2])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_float_in_a_list_raises(tmp_path, bad):
    for items in ([0.5, bad, 2.0], [0.5, np.float64(bad)]):
        with pytest.raises(ValueError, match="non-finite value"):
            dumps_json(items)
        with pytest.raises(ValueError, match="non-finite value"):
            write_json(tmp_path / "state.json", {"values": items})
        assert not (tmp_path / "state.json").exists()
