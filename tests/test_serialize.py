"""Deterministic emission: the trace writer's digit kernel against
``"%.17g"``, its bytes against write_csv, and the JSON emitter's float lists
against item-by-item formatting."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from duality_bench import GaussianTarget, GibbsConfig, make_decomposition, run_chain
from duality_bench.serialize import (
    _ROW_CHUNK,
    _float_slots,
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


def kernel_text(values) -> list[str]:
    """Each value as the digit kernel's slots give it, NULs dropped."""
    slots = _float_slots(np.asarray(values, dtype=float))
    return [bytes(column).translate(None, b"\0").decode() for column in slots.T]


def assert_kernel_is_format(values):
    values = np.asarray(values, dtype=float)
    assert kernel_text(values) == ["%.17g" % v for v in values.tolist()]


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
def test_kernel_is_format_on_any_finite_doubles(values):
    assert_kernel_is_format(values)


def test_kernel_is_format_on_halfway_decimals():
    # 18 significant digits ending in 5, over the fast path's exponents and beyond
    rng = np.random.default_rng(24)
    digits = rng.integers(10**16, 10**17, 20_000).tolist()
    exponents = rng.integers(-30, 6, 20_000).tolist()
    assert_kernel_is_format([float(f"{d}5e{k}") for d, k in zip(digits, exponents)])
    # doubles whose exact expansion is 18 digits ending in 5: a tie at 17 digits
    ints = rng.integers(10**15, 2 * 10**15, 20_000).astype(float)
    assert_kernel_is_format(np.concatenate([ints + 0.25, ints + 0.75, -(ints + 0.25)]))


def test_kernel_is_format_on_zeros_integers_and_powers_of_two():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    rng = np.random.default_rng(7)
    assert_kernel_is_format([0.0, -0.0, 1.0, -1.0, 10.0, 100.0, 1e16, 1e17 - 16])
    assert_kernel_is_format(rng.integers(-2**62, 2**62, 20_000).astype(float))
    assert_kernel_is_format(np.concatenate([powers, -powers]))


@pytest.mark.parametrize("edge", [10.0**k for k in range(-6, 18)])
def test_kernel_is_format_next_to_powers_of_ten(edge):
    below, above = edge, edge
    values = [edge]
    for _ in range(40):
        below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
        values += [below, above]
    assert_kernel_is_format(values + [-v for v in values])


def test_kernel_is_format_where_floor_log10_is_one_off():
    values = [9.9999999999999995e-5, 9.999999999999999e-06, 0.09999999999999999,
              999.9999999999999, 9999999999999998.0, 9.999999999999998e16]
    exponents = [int(("%.16e" % v).split("e")[1]) for v in values]
    assert [int(np.floor(np.log10(v))) for v in values] == [k + 1 for k in exponents]
    assert_kernel_is_format(values + [-v for v in values])


def gaussian_trace(rows):
    model = GaussianTarget([1.0, -2.0], [[1.0, 0.5], [0.5, 1.0]], make_decomposition([1, 1]))
    return run_chain(model, GibbsConfig(n_cycles=rows, burn_in=0, seed=3)).samples


@pytest.mark.parametrize("samples", [
    np.array([[-0.0, 5e-324, 1e-300],
              [1e300, 3.0, -7.0],
              [0.1, -2.5e-8, 123456789.0],
              [0.0, -1e300, 1.0 / 3.0]]),
    np.array([[0.0, 2.0], [1.0, 0.0], [1.0, 1.0]]),   # a discrete trace
    gaussian_trace(49_000),
    np.random.default_rng(5).integers(-3, 4, (49_000, 3)).astype(float),
    np.zeros((0, 2)),
], ids=["continuous", "discrete", "gaussian-49000", "discrete-49000", "zero-rows"])
def test_trace_bytes_equal_write_csv(tmp_path, samples):
    assert len(samples) < _ROW_CHUNK or len(samples) % _ROW_CHUNK  # a part chunk
    header = HEADER[:1 + samples.shape[1]]
    write_trace_csv(tmp_path / "trace.csv", header, 11, samples)
    assert (tmp_path / "trace.csv").read_bytes() == csv_bytes(tmp_path / "ref.csv", samples, 11)
    if not len(samples):
        assert (tmp_path / "trace.csv").read_bytes() == (",".join(header) + "\n").encode()


@pytest.mark.parametrize("first_cycle", [-12, -1, 0, 1, 9, 10**12])
def test_trace_cycle_column_equals_write_csv(tmp_path, first_cycle):
    samples = np.arange(30.0).reshape(15, 2) - 7.5
    write_trace_csv(tmp_path / "trace.csv", HEADER[:3], first_cycle, samples)
    assert (tmp_path / "trace.csv").read_bytes() == csv_bytes(tmp_path / "ref.csv", samples,
                                                              first_cycle)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_sample_raises(tmp_path, bad):
    samples = np.array([[0.5, 1.0], [bad, 2.0]])
    with pytest.raises(ValueError, match="non-finite value"):
        write_trace_csv(tmp_path / "trace.csv", HEADER[:3], 1, samples)
    assert not (tmp_path / "trace.csv").exists()


def test_trace_csv_is_written_chunk_by_chunk(tmp_path):
    # the file is 2.2 MB; holding every chunk's bytes and their join peaks at 5.1 MiB
    samples = gaussian_trace(49_000)
    tracemalloc.start()
    try:
        write_trace_csv(tmp_path / "trace.csv", HEADER[:3], 1, samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 2**20


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
