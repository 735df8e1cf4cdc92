import random

import pytest

from conftest import is_super_regular
from mscr.galois import FieldSpec
from mscr.linalg import (SUPER_REGULAR_MAX, CauchySpec, DimensionMismatch,
                         DuplicateGenerators, Matrix, SingularMatrix, TooLarge, cauchy,
                         cauchy_inverse, dot, first_singular_minor,
                         random_nonsingular)


def _rand(spec, r, c, rng):
    return Matrix(spec, [[rng.randrange(spec.order) for _ in range(c)] for _ in range(r)])


def _cauchy_spec(spec, k, rng):
    vals = rng.sample(range(spec.order), 2 * k)
    return CauchySpec(tuple(spec.element(v) for v in vals[:k]),
                      tuple(spec.element(v) for v in vals[k:]))


def test_identity_multiplication(gf256):
    rng = random.Random(0)
    a = _rand(gf256, 3, 3, rng)
    assert Matrix.identity(gf256, 3) @ a == a
    assert a @ Matrix.identity(gf256, 3) == a


def test_transpose_involution(gf256):
    rng = random.Random(1)
    a = _rand(gf256, 3, 5, rng)
    assert a.transpose().transpose() == a


def test_matmul_associative(gf256):
    rng = random.Random(2)
    for _ in range(100):
        a, b, c = (_rand(gf256, 3, 3, rng) for _ in range(3))
        assert (a @ b) @ c == a @ (b @ c)


@pytest.mark.parametrize("degree", [8, 16])
def test_matmul_entries_are_dot_products(degree):
    spec, rng = FieldSpec(degree), random.Random(degree)
    for _ in range(50):
        r, t, c = (rng.randrange(1, 6) for _ in range(3))
        a, b = _rand(spec, r, t, rng), _rand(spec, t, c, rng)
        a = Matrix(spec, [[v if rng.random() < 0.7 else 0 for v in row] for row in a.int_rows()])
        assert (a @ b).int_rows() == [[dot(a.row(i), b.col(j)).value for j in range(c)]
                                      for i in range(r)]


def test_dimension_mismatch(gf256):
    rng = random.Random(3)
    with pytest.raises(DimensionMismatch):
        _rand(gf256, 2, 3, rng) @ _rand(gf256, 2, 3, rng)
    with pytest.raises(DimensionMismatch):
        _rand(gf256, 2, 3, rng) + _rand(gf256, 3, 2, rng)


def test_invert_identity(gf256):
    eye = Matrix.identity(gf256, 4)
    assert eye.invert() == eye


def test_invert_involution(gf256):
    rng = random.Random(4)
    for _ in range(20):
        a = random_nonsingular(gf256, 4, rng)
        assert a.invert().invert() == a
        assert a @ a.invert() == Matrix.identity(gf256, 4)


def test_invert_singular(gf256):
    with pytest.raises(SingularMatrix):
        Matrix(gf256, [[0, 0], [0, 0]]).invert()


def test_solve_identity_and_consistency(gf256):
    rng = random.Random(5)
    b = _rand(gf256, 3, 1, rng)
    assert Matrix.identity(gf256, 3).solve(b) == b
    for _ in range(20):
        a = random_nonsingular(gf256, 3, rng)
        x = _rand(gf256, 3, 2, rng)
        assert a.solve(a @ x) == x


def test_solve_agrees_with_inverse(gf256):
    rng = random.Random(6)
    for _ in range(100):
        a = random_nonsingular(gf256, 3, rng)
        rhs = _rand(gf256, 3, 1, rng)
        assert a.solve(rhs) == a.invert() @ rhs


@pytest.mark.parametrize("build, message", [
    (lambda f: Matrix(f, [[1, 2], [3]]), "^ragged rows$"),
    (lambda f: Matrix.from_rows([[f.element(1)], [FieldSpec(16).element(1)]]),
     "^mixed fields in one matrix$"),
    (lambda f: Matrix(f, [[1, 2]]).scalar_mul(FieldSpec(16).element(1)),
     "^scalar from a different field$"),
    (lambda f: Matrix(f, [[1, 2]]).invert(), "^only square matrices invert$"),
    (lambda f: Matrix(f, [[1, 2]]).solve(Matrix(f, [[1]])), "^coefficient matrix must be square$"),
    (lambda f: Matrix.identity(f, 2).solve(Matrix(f, [[1]])),
     r"^solve \(2, 2\) against rhs \(1, 1\)$"),
    (lambda f: Matrix(f, [[1, 2]]).det(), "^determinant of a non-square matrix$"),
], ids=["ragged", "mixed-fields", "scalar-field", "invert", "solve", "solve-rhs", "det"])
def test_matrix_shape_and_field_guards(gf256, build, message):
    with pytest.raises(DimensionMismatch, match=message):
        build(gf256)


def test_dot_basic(gf256):
    u = (gf256.element(2), gf256.element(3))
    v = (gf256.element(5), gf256.element(7))
    expect = gf256.element(2) * gf256.element(5) + gf256.element(3) * gf256.element(7)
    assert dot(u, v) == expect
    with pytest.raises(DimensionMismatch):
        dot(u, v[:1])


def test_cauchy_one_by_one(gf256):
    x, y = gf256.element(9), gf256.element(4)
    cs = CauchySpec((x,), (y,))
    assert cauchy(cs).at(0, 0) == (x + y).inverse()
    assert cauchy_inverse(cs).at(0, 0) == x + y


def test_cauchy_requires_distinct_generators(gf256):
    e = gf256.element
    with pytest.raises(DuplicateGenerators):
        CauchySpec((e(1), e(2)), (e(1), e(3)))
    with pytest.raises(DuplicateGenerators):
        CauchySpec((e(1), e(1)), (e(2), e(3)))


def test_cauchy_always_super_regular(gf256):
    rng = random.Random(7)
    for _ in range(20):
        k = rng.randrange(2, 6)
        assert is_super_regular(cauchy(_cauchy_spec(gf256, k, rng)))


def test_cauchy_inverse_matches_elimination(gf256):
    rng = random.Random(8)
    for trial in range(50):
        k = 2 + trial % 5
        cs = _cauchy_spec(gf256, k, rng)
        assert cauchy_inverse(cs) == cauchy(cs).invert()


def test_cauchy_inverse_is_inverse(gf256):
    rng = random.Random(9)
    cs = _cauchy_spec(gf256, 4, rng)
    assert cauchy_inverse(cs) @ cauchy(cs) == Matrix.identity(gf256, 4)


def test_super_regular_rejects_zero_entry(gf256):
    # Start from a Cauchy matrix (all entries nonzero) and force one zero.
    rng = random.Random(10)
    grid = cauchy(_cauchy_spec(gf256, 3, rng)).int_rows()
    grid[1][2] = 0
    assert not is_super_regular(Matrix(gf256, grid))
    assert first_singular_minor(Matrix(gf256, grid)) == ((1,), (2,))


def test_identity_is_not_super_regular(gf256):
    assert not is_super_regular(Matrix.identity(gf256, 2))


def test_super_regular_closed_under_inverse(gf256):
    # The inverse of a super-regular matrix is super-regular; exercised on
    # Cauchy matrices, whose inverses we can also build in closed form.
    rng = random.Random(11)
    for _ in range(20):
        k = rng.randrange(2, 5)
        mat = cauchy(_cauchy_spec(gf256, k, rng))
        assert is_super_regular(mat)
        assert is_super_regular(mat.invert())


def test_super_regular_size_cap(gf256):
    with pytest.raises(TooLarge):
        is_super_regular(Matrix.identity(gf256, 9))


def test_minor_search_runs_at_the_size_cap(gf256):
    # The cap is inclusive: at SUPER_REGULAR_MAX = 8 the search runs, and a zero entry
    # is the first singular minor it finds.
    n = SUPER_REGULAR_MAX
    assert n == 8
    grid = [[0 if (r, c) == (0, 0) else 1 for c in range(n)] for r in range(n)]
    assert first_singular_minor(Matrix(gf256, grid)) == ((0,), (0,))


def test_scalar_mul(gf256):
    rng = random.Random(12)
    a = _rand(gf256, 2, 2, rng)
    c = gf256.element(3)
    scaled = a.scalar_mul(c)
    for i in range(2):
        for j in range(2):
            assert scaled.at(i, j) == c * a.at(i, j)


def test_det_multiplicative(gf256):
    rng = random.Random(13)
    for _ in range(30):
        a = _rand(gf256, 3, 3, rng)
        b = _rand(gf256, 3, 3, rng)
        assert (a @ b).det() == a.det() * b.det()
