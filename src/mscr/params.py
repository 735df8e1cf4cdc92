"""Generation, validation and (de)serialization of full code parameter sets.

A parameter set for the n = 2k code consists of a nonsingular basis matrix V,
a Cauchy mixing matrix P with inverse Q, the derived basis U = V P and the
dual bases U_hat = (U^t)^-1 and V_hat = (V^t)^-1, plus four nonzero scalars
delta, epsilon, delta', epsilon' tied together by

    delta*delta' + epsilon*epsilon' = 1
    epsilon*delta' + delta*epsilon' = 0

and the cross-entry condition p_ij * q_ji != 1 for all i, j, which is what
makes mixed systematic/parity pair repair solvable.  Existence is realized
constructively: sample Cauchy generators, validate, retry.

P is super-regular (every square submatrix nonsingular) by construction, so
validation only checks that P is the Cauchy matrix of its generators.  Every
s x s submatrix of a Cauchy matrix is the Cauchy matrix of s of the a's and
s of the b's; in characteristic 2 its determinant is
prod_{i<j} (a_i+a_j)(b_i+b_j) / prod_{i,j} (a_i+b_j), nonzero because
CauchySpec rejects repeated generators.  The exhaustive minor enumeration
(linalg.first_singular_minor) remains as the test oracle for this argument.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from .galois import FieldElement, FieldSpec
from .linalg import CauchySpec, Matrix, cauchy, cauchy_inverse, random_nonsingular

__all__ = [
    "CodeParams",
    "DegenerateConstants",
    "GenerationExhausted",
    "PARAMS_VERSION",
    "Violation",
    "from_document",
    "generate",
    "load",
    "save",
    "solve_dual_constants",
    "to_document",
    "validate",
]

PARAMS_VERSION = 1
MIN_K = 2
MAX_K = 8


class DegenerateConstants(ValueError):
    """The 2x2 system tying (delta', epsilon') to (delta, epsilon) is singular."""


class GenerationExhausted(RuntimeError):
    """No valid parameter set found within the retry budget."""


@dataclass(frozen=True)
class Violation:
    """One failed parameter condition, with the offending indices if any."""

    condition: str
    indices: tuple = ()
    detail: str = ""

    def __str__(self) -> str:
        where = f" at {self.indices}" if self.indices else ""
        extra = f": {self.detail}" if self.detail else ""
        return f"{self.condition}{where}{extra}"


@dataclass(frozen=True)
class CodeParams:
    """A complete, immutable parameter set for one (n=2k, k) code."""

    k: int
    field: FieldSpec
    cauchy: CauchySpec
    v: Matrix
    p: Matrix
    q: Matrix
    u: Matrix
    u_hat: Matrix
    v_hat: Matrix
    delta: FieldElement
    epsilon: FieldElement
    delta_prime: FieldElement
    epsilon_prime: FieldElement
    seed: int

    @property
    def n(self) -> int:
        return 2 * self.k

    @property
    def block_size(self) -> int:
        """Symbols per data chunk: k^2."""
        return self.k * self.k


def solve_dual_constants(delta: FieldElement,
                         epsilon: FieldElement) -> tuple[FieldElement, FieldElement]:
    """Solve [[d, e], [e, d]] @ (d', e') = (1, 0) in closed form.

    In characteristic 2 the determinant is d^2 - e^2 = (d - e)^2, so the
    system is solvable exactly when d != e, giving d' = d/(d^2+e^2) and
    e' = e/(d^2+e^2).
    """
    if epsilon.spec != delta.spec:
        raise DegenerateConstants("constants from different fields")
    det = delta * delta + epsilon * epsilon
    if not det:
        raise DegenerateConstants("delta^2 equals epsilon^2")
    inv = det.inverse()
    return delta * inv, epsilon * inv


def _assemble(field: FieldSpec, k: int, cs: CauchySpec, v: Matrix,
              delta: FieldElement, epsilon: FieldElement, seed: int,
              delta_prime: FieldElement | None = None,
              epsilon_prime: FieldElement | None = None) -> CodeParams:
    """Derive every dependent matrix/constant from the free choices."""
    p = cauchy(cs)
    q = cauchy_inverse(cs)
    u = v @ p
    u_hat = u.transpose().invert()
    v_hat = v.transpose().invert()
    if delta_prime is None or epsilon_prime is None:
        delta_prime, epsilon_prime = solve_dual_constants(delta, epsilon)
    return CodeParams(k=k, field=field, cauchy=cs, v=v, p=p, q=q, u=u,
                      u_hat=u_hat, v_hat=v_hat, delta=delta, epsilon=epsilon,
                      delta_prime=delta_prime, epsilon_prime=epsilon_prime,
                      seed=seed)


def generate(k: int, field: FieldSpec | None = None, seed: int = 0,
             max_retries: int = 1000, random_v: bool = False) -> CodeParams:
    """Sample-and-validate until every parameter condition holds.

    Deterministic for a fixed (k, field, seed).  Each retry resamples the
    Cauchy generators first; the scalars are drawn by rejection and cannot
    themselves fail validation.
    """
    if field is None:
        field = FieldSpec(8)
    if not MIN_K <= k <= MAX_K:
        raise ValueError(f"k must be in {MIN_K}..{MAX_K}, got {k}")
    if field.order < 2 * k + 2:
        raise ValueError(
            f"field of order {field.order} cannot host 2k+2 = {2 * k + 2} distinct generators")
    rng = random.Random(seed)
    for _ in range(max_retries):
        vals = rng.sample(range(field.order), 2 * k)
        cs = CauchySpec(tuple(field.element(x) for x in vals[:k]),
                        tuple(field.element(x) for x in vals[k:]))
        p = cauchy(cs)
        q = cauchy_inverse(cs)
        # Cheap pre-filter: the cross-entry condition is the only one that
        # random Cauchy generators can realistically miss.
        if any(field.mul_int(p.int_at(i, j), q.int_at(j, i)) == 1
               for i in range(k) for j in range(k)):
            continue
        v = random_nonsingular(field, k, rng) if random_v else Matrix.identity(field, k)
        while True:
            d = rng.randrange(1, field.order)
            e = rng.randrange(1, field.order)
            if d != e:
                break
        candidate = _assemble(field, k, cs, v,
                              field.element(d), field.element(e), seed)
        if not validate(candidate):
            return candidate
    raise GenerationExhausted(
        f"no valid parameters for k={k} over {field!r} within {max_retries} retries")


def validate(params: CodeParams) -> list[Violation]:
    """Check every parameter condition independently; empty list means valid."""
    out: list[Violation] = []
    k, field = params.k, params.field
    ident = Matrix.identity(field, k)

    if not MIN_K <= k <= MAX_K:
        out.append(Violation("k_range", (), f"k={k} outside {MIN_K}..{MAX_K}"))
    if field.order < 2 * k + 2:
        out.append(Violation("field_order", (),
                             f"order {field.order} < 2k+2 = {2 * k + 2}"))
    if params.cauchy.k != k or params.v.shape != (k, k):
        out.append(Violation("shape", (), "k does not match matrix shapes"))
        return out

    if params.p != cauchy(params.cauchy):
        out.append(Violation("cauchy_form", (), "P does not match its generators"))
    if params.v.det().value == 0:
        out.append(Violation("v_nonsingular"))
    if params.p @ params.q != ident:
        out.append(Violation("q_inverse", (), "P*Q is not the identity"))
    if params.u != params.v @ params.p:
        out.append(Violation("uv_relation", (), "U != V*P"))
    if params.v != params.u @ params.q:
        out.append(Violation("uv_relation", (), "V != U*Q"))
    if params.u.transpose() @ params.u_hat != ident:
        out.append(Violation("dual_basis", (), "U_hat is not the dual of U"))
    if params.v.transpose() @ params.v_hat != ident:
        out.append(Violation("dual_basis", (), "V_hat is not the dual of V"))

    d, e = params.delta, params.epsilon
    dp, ep = params.delta_prime, params.epsilon_prime
    if not (d and e and dp and ep):
        out.append(Violation("nonzero_constants"))
    if d * d == e * e:
        out.append(Violation("distinct_squares", (), "delta^2 equals epsilon^2"))
    if d * dp + e * ep != field.one:
        out.append(Violation("dual_constants", (1,), "delta*delta' + epsilon*epsilon' != 1"))
    if e * dp + d * ep != field.zero:
        out.append(Violation("dual_constants", (2,), "epsilon*delta' + delta*epsilon' != 0"))

    mul = field.mul_int
    for i in range(k):
        for j in range(k):
            if mul(params.p.int_at(i, j), params.q.int_at(j, i)) == 1:
                out.append(Violation("product_one", (i + 1, j + 1)))
    return out


# -- params file ----------------------------------------------------------------


def _hex(value: int) -> str:
    return f"0x{value:x}"


def _matrix_doc(m: Matrix) -> list[list[str]]:
    return [[_hex(m.int_at(i, j)) for j in range(m.cols)] for i in range(m.rows)]


def to_document(params: CodeParams) -> dict:
    return {
        "version": PARAMS_VERSION,
        "k": params.k,
        "field": {
            "degree": params.field.degree,
            "reduction_poly": _hex(params.field.reduction_poly),
        },
        "seed": params.seed,
        "cauchy": {
            "a": [_hex(e.value) for e in params.cauchy.a],
            "b": [_hex(e.value) for e in params.cauchy.b],
        },
        "V": _matrix_doc(params.v),
        "delta": _hex(params.delta.value),
        "epsilon": _hex(params.epsilon.value),
        "delta_prime": _hex(params.delta_prime.value),
        "epsilon_prime": _hex(params.epsilon_prime.value),
    }


def from_document(doc: dict, check: bool = True) -> CodeParams:
    """Rebuild params from the file form, rederiving all dependent matrices.

    Any document that does not describe a parameter set (a missing key, a
    wrong JSON type, a singular V, ...) raises ValueError.  With check=True
    (the default) the result is also cross-checked by :func:`validate` and
    a ValueError carries any violations.
    """
    try:
        if doc.get("version") != PARAMS_VERSION:
            raise ValueError(f"unsupported params version {doc.get('version')!r}")
        field = FieldSpec(int(doc["field"]["degree"]),
                          int(doc["field"]["reduction_poly"], 16))
        cs = CauchySpec(tuple(field.element(int(x, 16)) for x in doc["cauchy"]["a"]),
                        tuple(field.element(int(x, 16)) for x in doc["cauchy"]["b"]))
        v = Matrix(field, [[int(x, 16) for x in row] for row in doc["V"]])
        params = _assemble(
            field, int(doc["k"]), cs, v,
            field.element(int(doc["delta"], 16)),
            field.element(int(doc["epsilon"], 16)),
            int(doc["seed"]),
            delta_prime=field.element(int(doc["delta_prime"], 16)),
            epsilon_prime=field.element(int(doc["epsilon_prime"], 16)),
        )
    except (LookupError, TypeError, AttributeError, ArithmeticError) as exc:
        raise ValueError(f"malformed params document: {type(exc).__name__}: {exc}") from None
    if check:
        violations = validate(params)
        if violations:
            raise ValueError("invalid params document: "
                             + "; ".join(str(v) for v in violations))
    return params


def save(params: CodeParams, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(to_document(params), indent=2, sort_keys=True) + "\n")


def load(path: str | Path, check: bool = True) -> CodeParams:
    return from_document(json.loads(Path(path).read_text()), check=check)
