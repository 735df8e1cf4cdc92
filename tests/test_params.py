import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mscr.galois import FieldSpec
from mscr.linalg import (CauchySpec, Matrix, cauchy, cauchy_inverse,
                         first_singular_minor)
from mscr.params import (DegenerateConstants, GenerationExhausted, Violation,
                         _assemble, from_document, generate, load, save,
                         solve_dual_constants, to_document, validate)


# ---------------------------------------------------------------------------
# The closed form for (delta', epsilon') is derived from a 2x2 linear system;
# sanity-check the algebra in a prime field where an independent brute-force
# solve is trivial, then check the characteristic-2 implementation.
# ---------------------------------------------------------------------------

def test_dual_constants_prime_field_oracle():
    p, d, e = 257, 2, 1
    solutions = [(dp, ep) for dp in range(p) for ep in range(p)
                 if (d * dp + e * ep) % p == 1 and (e * dp + d * ep) % p == 0]
    assert solutions == [(172, 171)]
    # Closed form: dp = d/(d^2-e^2), ep = -e/(d^2-e^2) mod p.
    det_inv = pow((d * d - e * e) % p, -1, p)
    assert (d * det_inv) % p == 172
    assert (-e * det_inv) % p == 171
    assert (2 * 172 + 1 * 171) % p == 1
    assert (1 * 172 + 2 * 171) % p == 0


def test_dual_constants_satisfy_both_equations(gf256):
    rng = random.Random(21)
    one, zero = gf256.one, gf256.zero
    for _ in range(100):
        d = gf256.element(rng.randrange(1, 256))
        e = gf256.element(rng.randrange(1, 256))
        if d == e:
            continue
        dp, ep = solve_dual_constants(d, e)
        assert d * dp + e * ep == one
        assert e * dp + d * ep == zero
        assert dp and ep


def test_dual_constants_degenerate(gf256):
    x = gf256.element(17)
    with pytest.raises(DegenerateConstants):
        solve_dual_constants(x, x)


def test_generate_validates_clean(gf256, params63):
    assert validate(params63) == []
    assert params63.n == 6
    assert params63.block_size == 9


def test_generate_deterministic(gf256):
    a = generate(3, gf256, seed=123)
    b = generate(3, gf256, seed=123)
    assert a == b
    c = generate(3, gf256, seed=124)
    assert c != a


def test_generate_random_v(gf256):
    p = generate(3, gf256, seed=5, random_v=True)
    assert validate(p) == []
    assert p.v != Matrix.identity(gf256, 3)


def test_generate_field_too_small():
    with pytest.raises((ValueError, GenerationExhausted)):
        generate(2, FieldSpec(1), seed=0)
    with pytest.raises(ValueError):
        generate(1, FieldSpec(8), seed=0)
    with pytest.raises(ValueError):
        generate(9, FieldSpec(8), seed=0)


def test_generate_all_desk_scale_sizes(gf256):
    for k in range(2, 9):
        p = generate(k, gf256, seed=k)
        assert validate(p) == []


def test_derived_matrices_rebuild_from_v_and_p(params63):
    p = params63
    assert p.q == p.p.invert()
    assert p.u == p.v @ p.p
    assert p.u_hat == p.u.transpose().invert()
    assert p.v_hat == p.v.transpose().invert()


def test_mixing_orthogonality(params63):
    # P Q = I entrywise: sum_l p_il q_lj is the Kronecker delta.
    k, field = params63.k, params63.field
    for i in range(k):
        for j in range(k):
            acc = 0
            for l in range(k):
                acc ^= field.mul_int(params63.p.int_at(i, l),
                                     params63.q.int_at(l, j))
            assert acc == (1 if i == j else 0)


def _search_product_one_collision():
    """Find honest Cauchy params whose only defect is one p_ij*q_ji == 1.

    k = 2 cannot serve here: inverting a 2x2 matrix pairs the cross products
    (p_11 q_11 = p_22 q_22), so a lone collision needs k >= 3.
    """
    field = FieldSpec(4)
    k = 3
    rng = random.Random(0)
    for _ in range(5000):
        vals = rng.sample(range(field.order), 2 * k)
        cs = CauchySpec(tuple(field.element(v) for v in vals[:k]),
                        tuple(field.element(v) for v in vals[k:]))
        p, q = cauchy(cs), cauchy_inverse(cs)
        hits = [(i + 1, j + 1) for i in range(k) for j in range(k)
                if field.mul_int(p.int_at(i, j), q.int_at(j, i)) == 1]
        if hits == [(1, 1)]:
            while True:
                d, e = rng.randrange(1, 16), rng.randrange(1, 16)
                if d != e:
                    break
            return _assemble(field, k, cs, Matrix.identity(field, k),
                             field.element(d), field.element(e), seed=0)
    raise AssertionError("no collision found in the search budget")


def test_validate_reports_product_one_collision():
    bad = _search_product_one_collision()
    assert validate(bad) == [Violation("product_one", (1, 1))]


def test_validate_reports_forced_zero_in_p(params63):
    grid = params63.p.int_rows()
    grid[0][0] = 0
    bad = dataclasses.replace(params63, p=Matrix(params63.field, grid))
    conditions = {v.condition for v in validate(bad)}
    assert "cauchy_form" in conditions
    # The enumeration oracle still locates the singular 1x1 minor.
    assert first_singular_minor(bad.p) == ((0,), (0,))


# ---------------------------------------------------------------------------
# validate() checks only that P is the Cauchy matrix of its generators; the
# super-regularity this implies is checked here against the exhaustive
# minor enumeration.  GF(2^4) is included because 2k distinct generators
# nearly fill it.
# ---------------------------------------------------------------------------

@st.composite
def cauchy_specs(draw):
    field = FieldSpec(draw(st.sampled_from([4, 8])))
    k = draw(st.integers(2, 6))
    vals = draw(st.lists(st.integers(0, field.order - 1),
                         min_size=2 * k, max_size=2 * k, unique=True))
    return CauchySpec(tuple(field.element(x) for x in vals[:k]),
                      tuple(field.element(x) for x in vals[k:]))


@settings(max_examples=150, deadline=None)
@given(cs=cauchy_specs())
def test_cauchy_matrices_are_super_regular(cs):
    assert first_singular_minor(cauchy(cs)) is None


@settings(max_examples=60, deadline=None)
@given(k=st.integers(2, 6), degree=st.sampled_from([4, 8]), seed=st.integers(0, 10_000),
       data=st.data())
def test_validate_rejects_any_changed_entry_of_p(k, degree, seed, data):
    field = FieldSpec(degree)
    params = generate(k, field, seed=seed)
    i = data.draw(st.integers(0, k - 1))
    j = data.draw(st.integers(0, k - 1))
    grid = params.p.int_rows()
    old = grid[i][j]
    grid[i][j] = data.draw(st.integers(0, field.order - 1).filter(lambda x: x != old))
    bad = dataclasses.replace(params, p=Matrix(field, grid))
    violations = validate(bad)
    assert violations
    assert "cauchy_form" in {v.condition for v in violations}


def test_validate_reports_k_outside_supported_range(gf256):
    vals = random.Random(3).sample(range(gf256.order), 18)
    cs = CauchySpec(tuple(gf256.element(x) for x in vals[:9]),
                    tuple(gf256.element(x) for x in vals[9:]))
    big = _assemble(gf256, 9, cs, Matrix.identity(gf256, 9),
                    gf256.element(2), gf256.element(3), seed=0)
    assert "k_range" in {v.condition for v in validate(big)}


def test_validate_refuses_huge_k_before_building_matrices(params63, monkeypatch):
    doc = to_document(params63)
    doc["k"] = 1500
    edited = from_document(doc, check=False)

    def no_identity(*args):
        raise AssertionError("validate built a k x k identity before its k checks")

    monkeypatch.setattr(Matrix, "identity", staticmethod(no_identity))
    assert "k_range" in {v.condition for v in validate(edited)}


def test_validate_reports_degenerate_constants(params63):
    bad = dataclasses.replace(params63, epsilon=params63.delta)
    conditions = {v.condition for v in validate(bad)}
    assert "distinct_squares" in conditions
    assert "dual_constants" in conditions


def test_document_roundtrip(params63):
    doc = to_document(params63)
    again = from_document(doc)
    assert again == params63


def test_file_roundtrip(tmp_path, params63):
    path = tmp_path / "params.json"
    save(params63, path)
    assert load(path) == params63
    # Byte determinism of the serialized form.
    save(params63, tmp_path / "again.json")
    assert path.read_bytes() == (tmp_path / "again.json").read_bytes()


def test_load_rejects_tampered_document(tmp_path, params63):
    doc = to_document(params63)
    doc["delta_prime"] = "0x0"
    with pytest.raises(ValueError):
        from_document(doc)
