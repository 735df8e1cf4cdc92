"""Executable check of the paper's mixed-pair nonsingularity result.

The mixed systematic + parity double failure repairs with optimal bandwidth
because its k x k system is nonsingular.  Two routes decide that here: the
direct determinant (:func:`check_mixed_matrix`) and the rank-one update of
Sherman and Morrison (1950) (:func:`sherman_morrison_check`).  The repair
protocol never calls them; acceptance criterion 06 and `test_repair.py` do.
The module is imported by tests, not collected itself.
"""

from mscr.galois import FieldElement
from mscr.linalg import Matrix
from mscr.params import CodeParams
from mscr.repair import _leading_coeff, _mixed_matrix


def mixed_repair_matrix(params: CodeParams, a: int, b: int) -> Matrix:
    """The k x k system newcomer a solves against x_a.

    Row 1 is (epsilon - (epsilon+delta) p_ab q_ba) u_b^t + delta p_ab v_a^t,
    the remaining rows are delta u_j^t + epsilon p_aj v_a^t for j != b.
    """
    return _mixed_matrix(params, params.parity_side, a, b)


def check_mixed_matrix(params: CodeParams, a: int, b: int) -> bool:
    """Direct determinant test of the mixed-repair system for (a, b)."""
    return mixed_repair_matrix(params, a, b).det().value != 0


def sherman_morrison_scalar(params: CodeParams, a: int, b: int) -> FieldElement:
    """The rank-one-update decision scalar 1 + h^t A^-1 g.

    The mixed-repair matrix factors through C = A + g h^t with
    A = diag(c0, delta, ..., delta), g = (delta p_ab; epsilon p_a,l!=b) and
    h = (q_ba; q_l!=b,a); C is nonsingular iff this scalar is nonzero.
    Requires the leading diagonal c0 to be nonzero (the other branch of the
    case split is handled by :func:`sherman_morrison_check`).
    """
    k = params.k
    c0 = _leading_coeff(params.parity_side, a, b)
    if not c0:
        raise ValueError("leading diagonal entry is zero; scalar branch inapplicable")
    p_ab = params.p.at(a - 1, b - 1)
    q_ba = params.q.at(b - 1, a - 1)
    acc = params.field.one + q_ba * (params.delta * p_ab / c0)
    inv_delta = params.delta.inverse()
    for l in range(1, k + 1):
        if l == b:
            continue
        q_la = params.q.at(l - 1, a - 1)
        p_al = params.p.at(a - 1, l - 1)
        acc = acc + q_la * (params.epsilon * p_al * inv_delta)
    return acc


def sherman_morrison_check(params: CodeParams, a: int, b: int) -> bool:
    """Nonsingularity of the mixed-repair system via the factored form.

    Writing the matrix as C @ (permuted U^t): when the leading diagonal of
    the rank-one decomposition vanishes, C row-reduces to delta * p_ab * v_a^t
    stacked over delta * u_j^t (j != b), which is tested directly; otherwise
    the Sherman-Morrison scalar decides.
    """
    c0 = _leading_coeff(params.parity_side, a, b)
    if not c0:
        if not params.delta or not params.p.at(a - 1, b - 1):
            return False
        k = params.k
        rows = [list(params.v.col(a - 1))]
        rows += [list(params.u.col(j - 1)) for j in range(1, k + 1) if j != b]
        return Matrix.from_rows(rows).det().value != 0
    return bool(sherman_morrison_scalar(params, a, b))
