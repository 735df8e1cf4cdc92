import operator
import random
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import from_planes, to_planes
from mscr import galois
from mscr.galois import (_GATHER_WORDS, DEFAULT_POLYS, DivisionByZero,
                         FieldMismatch, FieldSpec)


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
    for g in range(1 if degree == 1 else 2, order):  # in GF(2), 1 generates
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


def test_mul_known_value_and_oracle(gf256):
    assert gf256.mul_int(0x57, 0x83) == 0xC1
    exp, log = _oracle_tables(0x11B, 8)
    rng = random.Random(5)
    for _ in range(2000):
        a, b = rng.randrange(256), rng.randrange(256)
        assert gf256.mul_int(a, b) == _oracle_mul(a, b, exp, log, 256)


# x is not primitive modulo the last three: its order is 73, 45 and 21 845, so the
# search rejects g = 2 once while walking its powers and twice from the full table.
@pytest.mark.parametrize("degree, poly", sorted(DEFAULT_POLYS.items())
                         + [(8, 0x11D), (9, 0x203), (12, 0x1009), (16, 0x1002B)])
def test_tables_equal_the_oracle_walk(degree, poly):
    # Fields past 2^8 build their tables with numpy; the tables must not change.
    exp, log = _oracle_tables(poly, degree)
    f, n = FieldSpec(degree, poly), (1 << degree) - 1
    assert list(f._exp) == [exp[i % n] for i in range(2 * n)]
    assert list(f._log[1:]) == [log[v] for v in range(1, n + 1)]


def test_gf2_16_tables_hold_four_bytes_an_entry():
    # 2 x 65 535 exp and 65 536 log entries at 4 bytes are 0.75 MiB; as Python ints they
    # held 5 MiB.  The build may briefly hold about as much again.
    tracemalloc.start()
    try:
        tables = galois._build_tables(16, 0x1100B)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tables[0]) == 2 * 65535 and len(tables[1]) == 65536
    assert retained <= 1 << 20 and peak <= 2 << 20


def test_gf2_16_tables_hold_two_bytes_an_entry():
    # Every GF(2^16) exp and log entry fits in 16 bits: the tables retain 0.375 MiB,
    # the fresh memory a cold FieldSpec(16) touches for them.
    tracemalloc.start()
    try:
        tables = galois._build_tables(16, 0x1100B)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert [t.itemsize for t in tables] == [2, 2]
    assert retained <= 1 << 19


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


@pytest.mark.parametrize("degree, poly", sorted(DEFAULT_POLYS.items()))
def test_default_poly_is_irreducible(degree, poly):
    # FieldSpec trusts these constants without the trial division.
    assert poly.bit_length() == degree + 1 and galois._is_irreducible(poly, degree)


def test_default_poly_skips_the_irreducibility_check(monkeypatch):
    monkeypatch.delitem(galois._TABLE_CACHE, (12, DEFAULT_POLYS[12]), raising=False)
    calls, check = [], galois._is_irreducible
    monkeypatch.setattr(galois, "_is_irreducible", lambda *a: calls.append(a) or check(*a))
    assert FieldSpec(12).reduction_poly == DEFAULT_POLYS[12] and not calls
    with pytest.raises(ValueError, match="reducible"):
        FieldSpec(12, DEFAULT_POLYS[12] ^ 1)  # even: divisible by x
    assert calls == [(DEFAULT_POLYS[12] ^ 1, 12)]


def test_cached_field_skips_the_irreducibility_check(monkeypatch):
    FieldSpec(16)  # in the table cache from here on
    calls, check = [], galois._is_irreducible
    monkeypatch.setattr(galois, "_is_irreducible", lambda *a: calls.append(a) or check(*a))
    assert FieldSpec(16) == FieldSpec(16, DEFAULT_POLYS[16]) and not calls
    with pytest.raises(ValueError, match="reducible"):
        FieldSpec(16, DEFAULT_POLYS[16] ^ 1)  # even: divisible by x, and of a cached degree
    assert calls == [(DEFAULT_POLYS[16] ^ 1, 16)]


def _check_scale_array(field, rows, values):
    """scale_array on bit planes equals xor_j mul_int(rows[i][j], values[j]) per block."""
    m, n = field.degree, len(values[0])
    planes = to_planes(values, m)
    out = field.scale_array(field.plan(rows), planes)
    assert out.dtype == np.uint64 and out.shape == (len(rows) * m, planes.shape[1])
    assert out.base is None  # owns its memory
    expected = [[0] * n for _ in rows]
    for i, row in enumerate(rows):
        for c, xs in zip(row, values):
            for t, v in enumerate(xs):
                expected[i][t] ^= field.mul_int(c, v)
    got = from_planes(out, m, 64 * planes.shape[1])
    assert [g[:n] for g in got] == expected
    assert not any(v for g in got for v in g[n:])  # pad blocks stay zero


@pytest.mark.parametrize("degree", [8, 16])
def test_scale_array_matches_scalar(degree):
    f = FieldSpec(degree)
    rng = random.Random(degree)
    values = [[rng.randrange(f.order) for _ in range(200)]]
    for c in (0, 1, rng.randrange(2, f.order)):
        _check_scale_array(f, [[c]], values)

    if degree == 8:
        # Every (c, v) pair, one output coordinate per constant, for the
        # default and a second reduction polynomial.
        for field in (f, FieldSpec(8, 0x11D)):
            _check_scale_array(field, [[c] for c in range(256)], [list(range(256))])
    else:
        # Constants and values with a zero or an all-ones byte.
        edges = [0x00ff, 0x0100, 0xff00, 0xffff, 0x0001, 0x8000, 0x1234]
        values = [edges + [rng.randrange(f.order) for _ in range(100)]]
        _check_scale_array(f, [[c] for c in edges[:4] + [rng.randrange(2, f.order)]], values)
        _check_scale_array(FieldSpec(16, 0x1002B), [[0xff00], [0xffff]], values)

    # A full matrix over several coordinates, with zero and unit entries.
    rows = [[rng.randrange(f.order) for _ in range(7)] for _ in range(3)]
    rows += [[0] * 7, [0, 0, 1, 0, 0, 0, 0]]
    grid = [[rng.randrange(f.order) for _ in range(130)] for _ in range(7)]
    _check_scale_array(f, rows, grid)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_scale_array_random_matrices_every_degree(data):
    field = FieldSpec(data.draw(st.integers(1, 16)))
    r, s = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    n = data.draw(st.integers(0, 130))
    symbol = st.integers(0, field.order - 1)
    rows = data.draw(st.lists(st.lists(symbol, min_size=s, max_size=s), min_size=r, max_size=r))
    values = data.draw(st.lists(st.lists(symbol, min_size=n, max_size=n),
                                min_size=s, max_size=s))
    _check_scale_array(field, rows, values)


def _group_codes(f, rows):
    """Per bitmatrix row, the 4-bit selector of each group of 4 input planes."""
    m = f.degree
    bits = [[f.mul_int(c, 1 << b) >> a & 1 for c in row for b in range(m)]
            for row in rows for a in range(m)]
    return [[sum(bit << t for t, bit in enumerate(r[g:g + 4])) for g in range(0, len(r), 4)]
            for r in bits]


@pytest.mark.parametrize("words", [_GATHER_WORDS, _GATHER_WORDS + 1])
@pytest.mark.parametrize("degree", [3, 5, 8, 12, 16])
def test_scale_array_across_the_width_switch(degree, words):
    # Wider than _GATHER_WORDS, the kernel builds XOR tables per group of 4
    # input planes; narrower slices take the gather-reduce path that the
    # scalar checks above cover.  Both must agree on every word.  s*m = 9 and
    # 15 leave a last group of 1 and 3 planes.  Rows: zero, one and two set
    # bits, repeated, dense, and one constant in every coordinate, so that with
    # m % 4 == 0 later groups need the same table entries as earlier ones and
    # an entry left over from an earlier group would show.
    f = FieldSpec(degree)
    rng = random.Random(degree * words)
    s, c = 3, rng.randrange(3, f.order)
    dense = [rng.randrange(1, f.order) for _ in range(s)]
    rows = [[0] * s, [0, 1, 0], [1, 0, 1], dense, [c] * s, dense, [0] * s, [c, 0, 1], dense]
    rows += [[rng.randrange(1, f.order) for _ in range(s)] for _ in range(rng.randrange(1, 4))]
    rng.shuffle(rows)
    if degree % 4 == 0:
        codes = _group_codes(f, [[c] * s])
        assert any(r.count(v) > 1 for r in codes for v in r if v & (v - 1))
    planes = np.random.default_rng(words).integers(
        0, 1 << 64, size=(s * degree, words), dtype=np.uint64)
    plan = f.plan(rows)
    out = f.scale_array(plan, planes)
    narrow = [f.scale_array(plan, planes[:, w:w + 1000]) for w in range(0, words, 1000)]
    assert np.array_equal(out, np.concatenate(narrow, axis=1))
    for word in (0, words - 1):  # and against scalar arithmetic directly
        values = from_planes(planes[:, word:word + 1], degree, 64)
        expected = [[reduce(operator.xor, (f.mul_int(c, v[t]) for c, v in zip(row, values)))
                     for t in range(64)] for row in rows]
        assert from_planes(out[:, word:word + 1], degree, 64) == expected
    # `out` planes are overwritten whatever they held, zero rows included.
    target = np.full((2 * len(rows) * degree, words), 0xA5, dtype=np.uint64)
    f.scale_array(plan, planes, out=list(target[::2]))
    assert np.array_equal(target[::2], out)
    assert not (target[1::2] != 0xA5).any()


def test_scale_array_rejects_planes_of_another_width(gf256):
    with pytest.raises(ValueError, match="planes"):
        gf256.scale_array(gf256.plan([[1, 2]]), np.zeros((8, 3), dtype=np.uint64))
