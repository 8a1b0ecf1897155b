"""Tests for dimension groups built from primitive integer matrices."""

import random
import re
from fractions import Fraction as F

import pytest

from weilzeta.dimgroup import (
    HeckeLikeMatrix,
    build,
    equivalent,
    frobenius_shift_matches_eigenvalue,
    hecke_companion,
    make_matrix,
    parse_matrix,
    shift,
    shift_inverse,
    trace_value,
    unit_decomposition,
)
from weilzeta.errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    InvalidInput,
    NotPrimitive,
    NotRepresentable,
    ParseError,
)
from weilzeta.realalg import RealNumberField, minimal_polynomial


def _hecke_group():
    return build(make_matrix([[3, 1], [1, 1]], ell=2))


def test_matrix_validation():
    with pytest.raises(DimensionMismatch):
        make_matrix([[1, 2]])
    with pytest.raises(InvalidInput):
        make_matrix([[-1, 1], [1, 1]])
    # an entry that is not an int is refused, integral or not; a bool is an int
    with pytest.raises(InvalidInput, match=r"^entries must be non-negative integers, got 1\.5$"):
        make_matrix([[1.5, 1], [1, 1]])
    with pytest.raises(InvalidInput, match=r"got Fraction\(1, 2\)$"):
        make_matrix([[3, F(1, 2)], [1, 1]])
    with pytest.raises(InvalidInput, match=r"^entries must be non-negative integers, got 3\.0$"):
        make_matrix([[3.0, 1], [1, 1]])
    with pytest.raises(InvalidInput, match=r"got Fraction\(1, 1\)$"):
        make_matrix([[3, F(1)], [1, 1]])
    assert make_matrix([[3, 1], [True, 1]]).rows == ((3, 1), (1, 1))
    with pytest.raises(NotPrimitive):
        make_matrix([[0, 1], [1, 0]])
    with pytest.raises(NotPrimitive):
        make_matrix([[1, 1], [0, 1]])
    with pytest.raises(NotPrimitive):
        make_matrix([[2, 0], [0, 3]])


def test_matrix_ell_tag_requires_symmetry_and_det():
    with pytest.raises(InvalidInput):
        make_matrix([[3, 1], [2, 1]], ell=1)
    with pytest.raises(InvalidInput):
        make_matrix([[3, 1], [1, 1]], ell=3)
    T = make_matrix([[3, 1], [1, 1]], ell=2)
    assert T.det() == 2
    assert T.ell == 2


def test_primitivity_allows_zero_entries():
    T = make_matrix([[0, 1], [1, 1]])
    assert T.rows == ((0, 1), (1, 1))


def _first_positive_power(rows):
    """Least k <= (b-1)^2 + 1 with A^k positive, by boolean products, or None."""
    b = len(rows)
    positive = [[v > 0 for v in row] for row in rows]
    power = positive
    for k in range(1, (b - 1) ** 2 + 2):
        if all(all(row) for row in power):
            return k
        power = [[any(power[i][j] and positive[j][m] for j in range(b))
                  for m in range(b)] for i in range(b)]
    return None


def _is_accepted(rows):
    try:
        make_matrix(rows)
    except NotPrimitive:
        return False
    return True


def _wielandt(b):
    """The cycle 0 -> 1 -> ... -> b-1 -> 0 with the chord b-1 -> 1: its first
    positive power is exactly (b-1)^2 + 1 (Wielandt's extremal matrix)."""
    rows = [[0] * b for _ in range(b)]
    for i in range(b):
        rows[i][(i + 1) % b] = 1
    rows[b - 1][1] = 1
    return rows


def test_primitivity_by_squaring_matches_successive_powers():
    rng = random.Random(20261019)
    verdicts = set()
    for _ in range(400):
        b = rng.randint(1, 6)
        density = rng.choice((0.15, 0.3, 0.5))
        rows = [[rng.randint(1, 3) if rng.random() < density else 0 for _ in range(b)]
                for _ in range(b)]
        verdict = _first_positive_power(rows) is not None
        assert _is_accepted(rows) == verdict, rows
        verdicts.add(verdict)
    assert verdicts == {True, False}
    # the bound is reached: no lower power of Wielandt's matrix is positive
    for b in range(2, 8):
        assert _first_positive_power(_wielandt(b)) == (b - 1) ** 2 + 1
        assert _is_accepted(_wielandt(b))
    for b in (40, 60):
        assert _is_accepted(_wielandt(b))
        cycle = _wielandt(b)
        cycle[b - 1][1] = 0
        assert not _is_accepted(cycle)


def test_build_certifies_perron_eigenvalue():
    G = _hecke_group()
    assert minimal_polynomial(G.lam) == (2, -4, 1)
    K = RealNumberField.quadratic(2)
    two_plus_root2 = K.from_rational(F(2)) + K.gen()
    # one root of x^2 - 4x + 2 lies in (3, 4), so these are one number
    assert minimal_polynomial(two_plus_root2) == (2, -4, 1)
    assert 3 < two_plus_root2 < 4 and 3 < G.lam < 4


def test_build_left_eigenvector_normalized():
    G = _hecke_group()
    assert G.w[0] == G.field.one()
    # w_2 = lambda - 3 = sqrt(2) - 1
    assert G.w[1] == G.field.element((F(-3), F(1)))
    assert G.w[1].decimal_str(10) == "0.4142135624"


def test_build_golden_ratio_case():
    G = build(make_matrix([[0, 1], [1, 1]]))
    assert minimal_polynomial(G.lam) == (-1, -1, 1)
    assert G.w[1] == G.lam


def test_build_separates_a_rational_eigenvalue():
    # chi = x (x^2 - 2x - 2): the factors x and x^2 - 2x - 2 both have real
    # roots, one of them rational; lambda = 1 + sqrt(3)
    G = build(make_matrix([[0, 0, 1], [0, 0, 1], [1, 1, 2]]))
    assert G.field.minpoly == (-2, -2, 1)
    assert minimal_polynomial(G.lam) == (-2, -2, 1)
    lo, hi, d = G.field.bracket
    assert (F(lo, d), F(hi, d)) == (F(3, 2), F(3))
    assert G.w == (G.field.one(), G.field.one(), G.lam)


def test_build_rejects_degenerate_spectrum():
    with pytest.raises(DegenerateSpectrum):
        build(make_matrix([[1]]))


def test_build_one_dimensional():
    G = build(make_matrix([[2]]))
    assert G.lam == G.field.from_rational(F(2))
    assert trace_value(G, ((3,), 2)) == G.field.from_rational(F(3, 4))


@pytest.mark.parametrize("call, message", [
    (lambda G: make_matrix([["a", 1], [1, 1]]),
     "entries must be non-negative integers, got 'a'"),
    (lambda G: trace_value(G, ((1.5, 0), 0)), "vector entries must be integers, got 1.5"),
    (lambda G: trace_value(G, ((1, 0), 0.7)), "level must be an integer, got 0.7"),
    (lambda G: shift(G, ((1, 0.5), 0)), "vector entries must be integers, got 0.5"),
    (lambda G: shift_inverse(G, ((1, 0), "1")), "level must be an integer, got '1'"),
    (lambda G: equivalent(G, ((1, 0), 0), ((1, 0), 0.7)),
     "level must be an integer, got 0.7"),
    (lambda G: equivalent(G, ((1, None), 0), ((1, 0), 0)),
     "vector entries must be integers, got None"),
    (lambda G: unit_decomposition(G, 2.5), "ell must be an integer, got 2.5"),
    (lambda G: hecke_companion(5.5, 2), "the trace must be an integer, got 5.5"),
    (lambda G: hecke_companion(5, "2"), "ell must be an integer, got '2'"),
    (lambda G: frobenius_shift_matches_eigenvalue(G, 4, 2.5), "ell must be an integer, got 2.5"),
], ids=["matrix str", "trace vector", "trace level", "shift", "shift_inverse",
        "equivalent level", "equivalent vector", "unit ell", "companion trace",
        "companion ell", "eigenvalue ell"])
def test_non_integer_inputs_are_invalid_input(call, message):
    G = _hecke_group()
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
        call(G)
    # an integral value of another type is refused too
    with pytest.raises(InvalidInput, match=r"^vector entries must be integers, got 1\.0$"):
        trace_value(G, ((1.0, F(0)), 1))
    with pytest.raises(InvalidInput, match=r"^level must be an integer, got 1\.0$"):
        trace_value(G, ((1, 0), 1.0))
    with pytest.raises(InvalidInput, match=r"^ell must be an integer, got Fraction\(2, 1\)$"):
        frobenius_shift_matches_eigenvalue(G, 4, F(2))
    with pytest.raises(InvalidInput, match=r"^the trace must be an integer, got 4\.0$"):
        frobenius_shift_matches_eigenvalue(G, 4.0, 2)
    assert frobenius_shift_matches_eigenvalue(G, 4, 2)


def test_trace_values_frozen():
    G = _hecke_group()
    one = G.field.one()
    assert trace_value(G, ((1, 0), 0)) == one
    assert trace_value(G, ((0, 1), 0)) == G.w[1]
    # tau(e_1 at level 1) = 1/lambda = (2 - sqrt(2))/2
    assert trace_value(G, ((1, 0), 1)) == G.lam.inverse()
    assert trace_value(G, ((1, 0), 1)).decimal_str(10) == "0.2928932188"


def test_trace_is_level_coherent():
    G = _hecke_group()
    rng = random.Random(17)
    for _ in range(50):
        v = (rng.randint(-9, 9), rng.randint(-9, 9))
        k = rng.randint(0, 5)
        Tv = tuple(sum(G.matrix.rows[i][j] * v[j] for j in range(2)) for i in range(2))
        assert trace_value(G, (v, k)) == trace_value(G, (Tv, k + 1))


def test_shift_multiplies_trace_by_lambda():
    G = _hecke_group()
    rng = random.Random(29)
    for _ in range(30):
        x = ((rng.randint(-9, 9), rng.randint(-9, 9)), rng.randint(0, 4))
        assert trace_value(G, shift(G, x)) == G.lam * trace_value(G, x)
        assert trace_value(G, shift_inverse(G, x)) * G.lam == trace_value(G, x)


def test_shift_inverse_undoes_shift():
    G = _hecke_group()
    x = ((2, -1), 1)
    assert equivalent(G, shift_inverse(G, shift(G, x)), x)


def test_equivalent_relations():
    G = _hecke_group()
    assert equivalent(G, ((1, 0), 0), ((1, 0), 0))
    assert equivalent(G, ((1, 0), 0), ((3, 1), 1))
    assert equivalent(G, ((1, 1), 0), ((4, 2), 1))
    assert not equivalent(G, ((1, 0), 0), ((0, 1), 0))
    assert not equivalent(G, ((1, 0), 0), ((1, 0), 1))


def test_equivalent_pushes_further_when_the_matrix_is_singular():
    # [[1, 1], [1, 1]] is primitive with det 0: vectors that differ by its
    # kernel meet one level up, and only then
    G = build(make_matrix([[1, 1], [1, 1]]))
    assert G.matrix.det() == 0
    assert equivalent(G, ((1, 0), 0), ((0, 1), 0))
    assert equivalent(G, ((1, -1), 0), ((0, 0), 0))
    assert equivalent(G, ((2, 0), 1), ((1, 1), 1))
    assert not equivalent(G, ((1, 0), 0), ((2, 0), 0))
    assert not equivalent(G, ((1, 0), 0), ((1, 0), 1))


def test_unit_decomposition_hecke_example():
    G = _hecke_group()
    ud = unit_decomposition(G, 2)
    assert ud.minpoly == (1, -4, 2)
    assert ud.verified is False
    assert ud.lam_unit.decimal_str(10) == "1.707106781"
    assert ud.lam_unit * G.field.from_rational(F(2)) == G.lam


def test_unit_decomposition_requires_ell_at_least_two():
    with pytest.raises(InvalidInput):
        unit_decomposition(_hecke_group(), 1)


def test_unit_decomposition_verified_unit():
    G = build(make_matrix([[4]], ell=4))
    ud = unit_decomposition(G, 4)
    assert ud.minpoly == (-1, 1)
    assert ud.verified is True


def test_hecke_companion_frozen():
    assert hecke_companion(4, 2).rows == ((3, 1), (1, 1))
    assert hecke_companion(5, 2).rows == ((3, 2), (2, 2))
    assert hecke_companion(4, 3).rows == ((2, 1), (1, 2))


def test_hecke_companion_not_representable():
    with pytest.raises(NotRepresentable):
        hecke_companion(3, 2)
    with pytest.raises(NotRepresentable):
        hecke_companion(-2, 2)
    with pytest.raises(NotRepresentable):
        hecke_companion(2, 2)
    with pytest.raises(NotRepresentable):
        hecke_companion(6, 2)


def test_frobenius_shift_matches_eigenvalue():
    G = build(hecke_companion(4, 2))
    assert frobenius_shift_matches_eigenvalue(G, 4, 2)
    assert not frobenius_shift_matches_eigenvalue(G, 5, 2)
    # x^2 - 2x + 2 has complex roots
    assert not frobenius_shift_matches_eigenvalue(G, 2, 2)
    other = build(make_matrix([[3, 2], [2, 2]], ell=2))
    assert not frobenius_shift_matches_eigenvalue(other, 4, 2)
    # reducible Frobenius polynomial never matches a minimal polynomial
    reducible = build(hecke_companion(4, 3))
    assert not frobenius_shift_matches_eigenvalue(reducible, 4, 3)


def test_parse_matrix():
    T = parse_matrix("3 1\n1 1\n")
    assert T.rows == ((3, 1), (1, 1))
    with pytest.raises(ParseError):
        parse_matrix("3 1\n1\n")
    with pytest.raises(ParseError):
        parse_matrix("")
    with pytest.raises(ParseError):
        parse_matrix("3 x\n1 1\n")


def _reduce(rows, ncols, zero):
    """Reduced row echelon form over a field: plain Gauss-Jordan, used here as
    the reference the adjugate eigenvector of build is checked against."""
    M = [list(row) for row in rows]
    m = len(M)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == m:
            break
        pr = next((i for i in range(r, m) if M[i][c] != zero), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        inv = M[r][c]
        M[r] = [v / inv for v in M[r]]
        for i in range(m):
            if i != r and M[i][c] != zero:
                f = M[i][c]
                M[i] = [vi - f * vr for vi, vr in zip(M[i], M[r])]
        pivots.append(c)
    return M, pivots


def _kernel_eigenvector(G):
    """w with w_1 = 1 spanning the kernel of T^t - lambda over Q(lambda)."""
    b, zero = G.b, G.field.zero()
    rows = [[G.field.from_rational(G.matrix.rows[i][j]) - (G.lam if i == j else zero)
             for i in range(b)] for j in range(b)]
    M, pivots = _reduce(rows, b, zero)
    assert len(pivots) == b - 1
    free = next(f for f in range(b) if f not in pivots)
    v = [zero] * b
    v[free] = G.field.one()
    for i, c in enumerate(pivots):
        v[c] = zero - M[i][free]
    return tuple(entry / v[0] for entry in v)


def test_adjugate_eigenvector_matches_kernel_over_q_lambda():
    rng = random.Random(16)
    accepted = 0
    while accepted < 200:
        b = 2 + accepted % 4
        rows = [[rng.choice((0, 0, 1, 1, 2, 3)) for _ in range(b)] for _ in range(b)]
        try:
            G = build(rows)
        except (NotPrimitive, DegenerateSpectrum):
            continue
        assert G.w == _kernel_eigenvector(G), rows
        accepted += 1


def test_unit_minpoly_in_closed_form_matches_minimal_polynomial():
    # 60 primitive matrices with b = 2..9 and four ell each: 240 cases
    rng = random.Random(20261104)
    accepted = 0
    while accepted < 60:
        b = 2 + accepted % 8
        rows = [[rng.choice((0, 0, 1, 1, 2, 3)) for _ in range(b)] for _ in range(b)]
        try:
            G = build(rows)
        except (NotPrimitive, DegenerateSpectrum):
            continue
        for ell in (2, 3, 5, 12):
            ud = unit_decomposition(G, ell)
            assert ud.minpoly == minimal_polynomial(G.lam * F(1, ell)), (rows, ell)
            assert ud.lam_unit == G.lam * F(1, ell)
        # frobenius_shift_matches_eigenvalue reads lambda's minimal
        # polynomial off its field
        assert G.field.minpoly == minimal_polynomial(G.lam), rows
        accepted += 1


def test_hecke_like_matrix_constructor_messages():
    assert HeckeLikeMatrix(2, ((1, 1), (1, 0))).ell is None
    cases = (
        ((3, ((1, 1), (1, 1))), DimensionMismatch, "expected 3 rows"),
        ((2, ((1, 1), (1,))), DimensionMismatch, "matrix must be square"),
        ((2, ((1, -1), (1, 1))), InvalidInput, "entries must be non-negative integers, got -1"),
        ((2, ((1, 0), (0, 1))), NotPrimitive, "no power up to 2 has all entries positive"),
        ((2, ((3, 1), (2, 1)), 1), InvalidInput, "determinant-tagged matrix must be symmetric"),
        ((2, ((3, 1), (1, 1)), 3), InvalidInput, "determinant is 2, expected 3"),
    )
    for args, error, message in cases:
        with pytest.raises(error) as info:
            HeckeLikeMatrix(*args)
        assert str(info.value) == message
