"""Generation, validation and (de)serialization of full code parameter sets.

A parameter set for the n = 2k code is fixed by four free choices: a
nonsingular basis matrix V, the Cauchy generators of the mixing matrix P,
and two scalars delta, epsilon with delta^2 != epsilon^2.  Everything else
follows from them and is derived on first use, never stored: Q = P^-1 (in
closed form), U = V P, and the dual bases U_hat = (U^t)^-1 and
V_hat = (V^t)^-1.  The dual scalars delta', epsilon' solve

    delta*delta' + epsilon*epsilon' = 1
    epsilon*delta' + delta*epsilon' = 0

and are stored because a params file carries them.  Mixed systematic/parity
pair repair also needs the cross-entry condition p_ij * q_ji != 1 for all
i, j, which random generators can miss; `generate` redraws them until it
holds.

`validate` checks only conditions on what a params document sets: k and
the field size, shapes, V nonsingular, the four scalars and their two
equations, and the cross-entry condition.  delta^2 != epsilon^2 needs no check
of its own: in characteristic 2 it means delta != epsilon, and with delta =
epsilon both equations read delta (delta' + epsilon'), which cannot be 1 and 0
at once.  P needs no check: every s x s submatrix of a Cauchy matrix is the
Cauchy matrix of s of the a's and s of the b's; in characteristic 2 its determinant is
prod_{i<j} (a_i+a_j)(b_i+b_j) / prod_{i,j} (a_i+b_j), nonzero because
CauchySpec rejects repeated generators.  The exhaustive minor enumeration
(linalg.first_singular_minor) remains as the test oracle for this argument.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .galois import FieldElement, FieldSpec
from .linalg import CauchySpec, Matrix, cauchy, cauchy_inverse, random_nonsingular

__all__ = [
    "CodeParams",
    "DegenerateConstants",
    "GenerationExhausted",
    "PARAMS_VERSION",
    "Side",
    "Violation",
    "from_document",
    "generate",
    "json_int",
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
class Side:
    """One orientation of the code's primal/dual symmetry.

    The parity side (U, P, V_hat, delta, epsilon) computes F and repairs
    parity nodes; the systematic side (V, Q, U_hat, delta', epsilon') is its
    mirror image, computing G and repairing systematic nodes.  Mixed-pair
    repair also needs the other side's basis (dual) and the inverse of the
    mixing matrix (unmix).  Basis index j (1-based) is coded node base + j,
    whose probe is column j of probes, and raw node k - base + j.
    """

    probes: Matrix
    mix: Matrix
    hat: Matrix
    dual: Matrix
    unmix: Matrix
    delta: FieldElement
    epsilon: FieldElement
    base: int


@dataclass(frozen=True)
class CodeParams:
    """A complete, immutable parameter set for one (n=2k, k) code.

    Only the free choices are fields, so equality and hashing (which the
    lru_caches in :mod:`mscr.codec` key on) cover exactly them; P, Q, U,
    U_hat, V_hat and the two sides are computed from `cauchy` and `v` on first use.
    """

    k: int
    field: FieldSpec
    cauchy: CauchySpec
    v: Matrix
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

    @cached_property
    def p(self) -> Matrix:
        return cauchy(self.cauchy)

    @cached_property
    def q(self) -> Matrix:
        return cauchy_inverse(self.cauchy)

    @cached_property
    def u(self) -> Matrix:
        return self.v @ self.p

    @cached_property
    def u_hat(self) -> Matrix:
        return self.u.transpose().invert()

    @cached_property
    def v_hat(self) -> Matrix:
        return self.v.transpose().invert()

    @cached_property
    def parity_side(self) -> Side:
        return Side(self.u, self.p, self.v_hat, self.v, self.q, self.delta, self.epsilon, self.k)

    @cached_property
    def systematic_side(self) -> Side:
        return Side(self.v, self.q, self.u_hat, self.u, self.p,
                    self.delta_prime, self.epsilon_prime, 0)


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


def generate(k: int, field: FieldSpec | None = None, seed: int = 0,
             max_retries: int = 1000, random_v: bool = False) -> CodeParams:
    """Draw the free choices until the cross-entry condition holds.

    Deterministic for a fixed (k, field, seed): each retry draws 2k distinct
    Cauchy generators and redraws them while some p_ij * q_ji == 1; only
    then are V (identity, or random nonsingular with random_v) and
    delta != epsilon drawn, and delta', epsilon' solved in closed form.
    The result satisfies every condition `validate` checks.
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
        p, q = cauchy(cs), cauchy_inverse(cs)
        if _product_one(p, q):
            continue
        v = random_nonsingular(field, k, rng) if random_v else Matrix.identity(field, k)
        while True:
            d = rng.randrange(1, field.order)
            e = rng.randrange(1, field.order)
            if d != e:
                break
        delta, epsilon = field.element(d), field.element(e)
        delta_prime, epsilon_prime = solve_dual_constants(delta, epsilon)
        params = CodeParams(k=k, field=field, cauchy=cs, v=v, delta=delta, epsilon=epsilon,
                            delta_prime=delta_prime, epsilon_prime=epsilon_prime, seed=seed)
        params.__dict__.update(p=p, q=q)  # the P and Q just checked, cached: validate reads them
        return params
    raise GenerationExhausted(
        f"no valid parameters for k={k} over {field!r} within {max_retries} retries")


def _product_one(p: Matrix, q: Matrix) -> list[tuple[int, int]]:
    """1-based (i, j) with p_ij * q_ji == 1."""
    mul, p_rows, q_rows = p.spec.mul_int, p.array.tolist(), q.array.tolist()
    return [(i + 1, j + 1) for i, row in enumerate(p_rows) for j, p_ij in enumerate(row)
            if mul(p_ij, q_rows[j][i]) == 1]


def validate(params: CodeParams) -> list[Violation]:
    """Check each condition on the free choices; empty list means valid."""
    out: list[Violation] = []
    k, field = params.k, params.field

    if not MIN_K <= k <= MAX_K:
        out.append(Violation("k_range", (), f"k={k} outside {MIN_K}..{MAX_K}"))
    if field.order < 2 * k + 2:
        out.append(Violation("field_order", (),
                             f"order {field.order} < 2k+2 = {2 * k + 2}"))
    if params.cauchy.k != k or params.v.shape != (k, k):
        out.append(Violation("shape", (), "k does not match matrix shapes"))
    if out:  # the O(k^3) checks below are moot once k or the shapes are refused
        return out

    if params.v.det().value == 0:
        out.append(Violation("v_nonsingular"))

    d, e = params.delta, params.epsilon
    dp, ep = params.delta_prime, params.epsilon_prime
    if not (d and e and dp and ep):
        out.append(Violation("nonzero_constants"))
    if d * dp + e * ep != field.one:
        out.append(Violation("dual_constants", (1,), "delta*delta' + epsilon*epsilon' != 1"))
    if e * dp + d * ep != field.zero:
        out.append(Violation("dual_constants", (2,), "epsilon*delta' + delta*epsilon' != 0"))
    out += [Violation("product_one", ij) for ij in _product_one(params.p, params.q)]
    return out


# -- params file ----------------------------------------------------------------


def _hex(value: int) -> str:
    return f"0x{value:x}"


def _matrix_doc(m: Matrix) -> list[list[str]]:
    return [[_hex(v) for v in row] for row in m.array.tolist()]


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


def json_int(value, name: str) -> int:
    """`value` if it is a JSON integer; a string, float or bool raises TypeError naming `name`."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an integer, not {value!r}")
    return value


def from_document(doc: dict, check: bool = True) -> CodeParams:
    """Rebuild params from the file form.

    Any document that does not describe a parameter set (a missing key, a
    wrong JSON type, a symbol outside the field, ...) raises ValueError.
    With check=True (the default) the result is also checked by
    :func:`validate` and a ValueError carries any violations.
    """
    try:
        if json_int(doc["version"], "version") != PARAMS_VERSION:
            raise ValueError(f"unsupported params version {doc['version']!r}")
        field = FieldSpec(json_int(doc["field"]["degree"], "field.degree"),
                          int(doc["field"]["reduction_poly"], 16))

        def element(text):
            return field.element(int(text, 16))

        params = CodeParams(
            k=json_int(doc["k"], "k"), field=field,
            cauchy=CauchySpec(tuple(map(element, doc["cauchy"]["a"])),
                              tuple(map(element, doc["cauchy"]["b"]))),
            v=Matrix.from_rows([[element(x) for x in row] for row in doc["V"]]),
            delta=element(doc["delta"]), epsilon=element(doc["epsilon"]),
            delta_prime=element(doc["delta_prime"]),
            epsilon_prime=element(doc["epsilon_prime"]),
            seed=json_int(doc["seed"], "seed"))
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
