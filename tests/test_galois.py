import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mscr.galois import (DEFAULT_POLYS, DivisionByZero, FieldMismatch,
                         FieldSpec, NotEnoughElements)


# ---------------------------------------------------------------------------
# Independent multiplication oracle: log/antilog tables built here with a
# local shift-reduce multiply and a brute-force generator search.
# ---------------------------------------------------------------------------

def _slow_mul(a, b, poly, degree):
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a & (1 << degree):
            a ^= poly
    return acc


def _oracle_tables(poly, degree):
    order = 1 << degree
    for g in range(2, order):
        exp, log = {}, {}
        x = 1
        for i in range(order - 1):
            if x in log:
                break
            exp[i] = x
            log[x] = i
            x = _slow_mul(x, g, poly, degree)
        if len(log) == order - 1 and x == 1:
            return exp, log
    raise AssertionError("no generator found")


def _oracle_mul(a, b, exp, log, order):
    if a == 0 or b == 0:
        return 0
    return exp[(log[a] + log[b]) % (order - 1)]


def test_add_is_xor(gf256):
    assert (gf256.element(0x57) + gf256.element(0x83)).value == 0xD4
    assert gf256.add_int(0x57, 0x83) == 0xD4


def test_mul_known_value_and_oracle(gf256):
    assert gf256.mul_int(0x57, 0x83) == 0xC1
    exp, log = _oracle_tables(0x11B, 8)
    rng = random.Random(5)
    for _ in range(2000):
        a, b = rng.randrange(256), rng.randrange(256)
        assert gf256.mul_int(a, b) == _oracle_mul(a, b, exp, log, 256)


def test_mul_identity(gf256):
    rng = random.Random(1)
    one = gf256.one
    for _ in range(100):
        x = gf256.element(rng.randrange(256))
        assert x * one == x


def test_field_axioms_random_triples(gf256):
    rng = random.Random(2)
    for _ in range(1000):
        a = gf256.element(rng.randrange(256))
        b = gf256.element(rng.randrange(256))
        c = gf256.element(rng.randrange(256))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a + a).value == 0


@given(a=st.integers(0, 255), b=st.integers(0, 255))
def test_mul_commutes(a, b):
    f = FieldSpec(8)
    assert f.mul_int(a, b) == f.mul_int(b, a)


def test_inverse_exhaustive_small_degrees():
    for m in range(1, 9):
        f = FieldSpec(m)
        for x in range(1, f.order):
            assert f.mul_int(x, f.inv_int(x)) == 1


def test_inverse_involution_and_identity(gf256):
    assert gf256.one.inverse() == gf256.one
    rng = random.Random(3)
    for _ in range(100):
        x = gf256.element(rng.randrange(1, 256))
        assert x.inverse().inverse() == x


def test_division_by_zero(gf256):
    with pytest.raises(DivisionByZero):
        gf256.element(5) / gf256.zero
    with pytest.raises(DivisionByZero):
        gf256.zero.inverse()


def test_subtraction_equals_addition(gf256):
    a, b = gf256.element(0x41), gf256.element(0x17)
    assert a - b == a + b
    assert -a == a


def test_field_mismatch():
    f1 = FieldSpec(8, 0x11B)
    f2 = FieldSpec(8, 0x11D)
    with pytest.raises(FieldMismatch):
        f1.element(1) + f2.element(1)
    f3 = FieldSpec(4)
    with pytest.raises(FieldMismatch):
        f1.element(1) * f3.element(1)


def test_element_range_check(gf256):
    with pytest.raises(ValueError):
        gf256.element(256)
    with pytest.raises(ValueError):
        gf256.element(-1)


def test_default_polys_all_construct():
    for m in range(1, 17):
        f = FieldSpec(m)
        assert f.order == 1 << m
        assert f.reduction_poly == DEFAULT_POLYS[m]


def test_reducible_poly_rejected():
    with pytest.raises(ValueError):
        FieldSpec(2, 0b110)  # x^2 + x = x(x+1)
    with pytest.raises(ValueError):
        FieldSpec(8, 0x11C)  # even: divisible by x
    with pytest.raises(ValueError):
        FieldSpec(8, 0x1B)  # wrong degree


def test_sample_distinct_full_permutation(gf256):
    elems = gf256.sample_distinct(256, rng_seed=9)
    assert sorted(e.value for e in elems) == list(range(256))


def test_sample_distinct_deterministic(gf256):
    first = gf256.sample_distinct(6, rng_seed=4)
    second = gf256.sample_distinct(6, rng_seed=4)
    assert first == second
    assert len({e.value for e in first}) == 6


def test_sample_distinct_too_many():
    f = FieldSpec(1)
    with pytest.raises(NotEnoughElements):
        f.sample_distinct(3, rng_seed=0)


@pytest.mark.parametrize("degree", [8, 16])
def test_scale_array_matches_scalar(degree):
    f = FieldSpec(degree)
    rng = random.Random(degree)
    arr = np.array([rng.randrange(f.order) for _ in range(200)], dtype=f.dtype)
    for c in (0, 1, rng.randrange(2, f.order)):
        out = f.scale_array(c, arr)
        assert list(out) == [f.mul_int(c, int(v)) for v in arr]

    def check(field, c, values):
        assert list(field.scale_array(c, values)) == [field.mul_int(c, int(v)) for v in values]

    if degree == 8:
        # Every (c, v) pair, for the default and a second reduction polynomial.
        every = np.arange(256, dtype=np.uint8)
        for field in (f, FieldSpec(8, 0x11D)):
            for c in range(256):
                check(field, c, every)
    else:
        # Constants and values with a zero or an all-ones byte.
        edges = [0x00ff, 0x0100, 0xff00, 0xffff, 0x0001, 0x8000, 0x1234]
        values = np.array(edges + [rng.randrange(f.order) for _ in range(100)], dtype=f.dtype)
        for c in edges[:4] + [rng.randrange(2, f.order)]:
            check(f, c, values)
            # The same values big-endian: bytes are taken in symbol order, not memory order.
            check(f, c, values.astype(">u2"))
        check(FieldSpec(16, 0x1002B), 0xff00, values)

    # Strided inputs: every other symbol, and one column of a 2-D array.
    grid = np.array([[rng.randrange(f.order) for _ in range(7)] for _ in range(30)],
                    dtype=f.dtype)
    c = rng.randrange(2, f.order)
    check(f, c, grid.reshape(-1)[::2])
    check(f, c, grid[:, 3])
    assert f.scale_array(c, grid).tolist() == [[f.mul_int(c, int(v)) for v in row]
                                                 for row in grid]
