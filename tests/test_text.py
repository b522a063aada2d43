"""Float text: ``_text.float_text`` gives ``repr``'s bytes for every float64,
and ``_text.rows`` joins such texts into lines."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenmin import _text, trial


@pytest.fixture(autouse=True, scope="module")
def kernel_for_every_size():
    # Small arrays go to repr; here every finite nonzero value takes the kernel.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_text, "_FEW", 0)
        yield


def _strings(values):
    """The text of each value, one bytes object per value."""
    return _text.float_text(values).view("S%d" % _text.WIDTH).ravel()


def _assert_repr(values):
    values = np.asarray(values, dtype=np.float64).ravel()
    got = _strings(values)
    want = np.array([repr(v).encode("ascii") for v in values.tolist()])
    bad = np.flatnonzero(got != want)
    assert not bad.size, "%d of %d differ, first %r" % (
        bad.size, values.size, list(zip(want[bad[:3]], got[bad[:3]])))


@settings(deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_any_float(values):
    _assert_repr(values)


def test_powers_of_two_and_ten_and_their_neighbours():
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float("1e%d" % e) for e in range(-323, 309)])
    powers = np.concatenate([twos, tens])
    _assert_repr(np.concatenate([powers, np.nextafter(powers, 0.0),
                                 np.nextafter(powers, np.inf), -powers]))


def test_random_bit_patterns():
    # Zeros, infinities and nans scattered among them, across blocks.
    rng = np.random.default_rng(20)
    values = rng.integers(0, 2 ** 64, 10 ** 5, dtype=np.uint64).view(np.float64)
    special = rng.choice(values.size, 300, replace=False)
    values[special] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], special.size)
    _assert_repr(values)


def test_short_decimals():
    k = np.arange(1, 2000, dtype=np.float64)
    _assert_repr(np.concatenate([k / 10.0 ** j for j in range(25)]
                                + [k * 10.0 ** j for j in range(1, 25)]))


def test_torus_profile_columns(torus64):
    d, x = trial._sorted_columns(torus64, 1, (2.1, 6.2))
    columns = [d]
    for beta in (1.0, 8.0, 64.0, 1024.0):
        phi, u, err = trial._truncation(beta, d, x)
        columns += [phi, u, err]
    _assert_repr(np.concatenate(columns))


def test_extremes_raise_no_warning():
    values = [np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, -5e-324,
              1.7976931348623157e308, -1.7976931348623157e308]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _strings(values).tolist() == [repr(v).encode("ascii") for v in values]


def test_empty():
    assert _text.float_text([]).shape == (0, _text.WIDTH)
    assert _text.rows([_text.float_text([])]) == b""


def test_small_arrays_take_repr(monkeypatch):
    def no_kernel(x):
        raise AssertionError("the kernel ran on a small array")

    monkeypatch.setattr(_text, "_FEW", 256)
    monkeypatch.setattr(_text, "_format_block", no_kernel)
    values = np.linspace(-3.0, 3.0, 255)
    _assert_repr(values)


def test_rows_join_fields_of_any_width():
    a = _text.float_text([1.5, -0.25, 1e-300])
    b = _text.float_text([2.0, 0.1, -7.0])
    assert _text.rows([a, b]) == b"1.5,2.0\n-0.25,0.1\n1e-300,-7.0\n"
    assert _text.rows([b, a, b], sep=b" ") == (
        b"2.0 1.5 2.0\n0.1 -0.25 0.1\n-7.0 1e-300 -7.0\n")

