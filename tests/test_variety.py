"""Tests for variety files, point counting, and elliptic curve counts."""

import random
import re
import time
import tracemalloc
from collections import Counter
from itertools import permutations, product

import pytest

from weilzeta.errors import (
    EnumerationBudgetExceeded,
    InvalidDegree,
    InvalidInput,
    InvalidPrime,
    NotHomogeneous,
    ParseError,
    SingularCurve,
    UnsupportedCharacteristic,
)
from weilzeta.cmcurve import ec_count
from weilzeta.ffield import _pmod, _pmul, _ppowmod, _psub, make_field, primes_in_range
from weilzeta.variety import (
    MultiPoly,
    PointCountSeries,
    VarietySpec,
    _IndexedField,
    count_points,
    count_series,
    parse_variety,
    weierstrass_variety,
)

P1_F2 = """field p=2
ambient projective dim=1 vardim=1
"""

P2_F3 = """field p=3
ambient projective dim=2 vardim=2
"""

ELL_F5 = """field p=5
ambient projective dim=2 vardim=1
poly X1^2*X2 - X0^3 + X0*X2^2
"""

CONIC_F5 = """field p=5
ambient affine dim=2 vardim=1
poly X0^2 + X1^2 - 1
"""


def _naive_affine_count_mod_p(p, f):
    """Brute-force count of f(x, y) = 0 over F_p by full scan."""
    return sum(1 for x in range(p) for y in range(p) if f(x, y) % p == 0)


def _naive_projective_count_mod_p(p, polys_eval, dim):
    """Count projective points by orbit counting on nonzero affine tuples."""
    total = 0
    coords = [0] * (dim + 1)

    def rec(i):
        nonlocal total
        if i == dim + 1:
            if any(coords) and all(f(coords) % p == 0 for f in polys_eval):
                total += 1
            return
        for v in range(p):
            coords[i] = v
            rec(i + 1)

    rec(0)
    assert total % (p - 1) == 0
    return total // (p - 1)


def test_parse_variety_fields_and_polys():
    v = parse_variety(ELL_F5)
    assert v.p == 5
    assert v.ambient == "projective"
    assert v.ambient_dim == 2
    assert v.vardim == 1
    assert len(v.polys) == 1
    assert v.polys[0].is_homogeneous()


def test_parse_variety_reduces_coefficients_mod_p():
    v = parse_variety("field p=5\nambient affine dim=1 vardim=0\npoly 7*X0 - 12\n")
    terms = dict(v.polys[0].terms)
    assert terms[((0, 1),)] == 2
    assert terms[()] == 3


def test_parse_variety_powers_by_squaring():
    v = parse_variety("field p=5\nambient affine dim=1 vardim=0\npoly (X0 + 1)^5\n")
    assert v.polys[0].terms == (((), 1), (((0, 5),), 1))
    v = parse_variety("field p=5\nambient affine dim=1 vardim=0\npoly X0^200000\n")
    assert v.polys[0].terms == ((((0, 200000),), 1),)


def test_parse_variety_skips_comments_and_blank_lines():
    text = "# a comment\nfield p=2\n\nambient projective dim=1 vardim=1\n# end\n"
    v = parse_variety(text)
    assert v.p == 2 and v.polys == ()


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as info:
        parse_variety("field p=2\nambient projective dim=1 vardim=1\npoly X0 $ X1\n")
    assert "line 3" in str(info.value)
    with pytest.raises(ParseError):
        parse_variety("ambient projective dim=1 vardim=1\n")
    with pytest.raises(ParseError):
        parse_variety("field p=2\nambient projective dim=1\n")


def test_parse_leading_unary_minus():
    head = "field p=7\nambient projective dim=2 vardim=1\n"
    v = parse_variety(head + "poly -X0^2 + X1*X2\n")
    assert dict(v.polys[0].terms) == {((0, 2),): 6, ((1, 1), (2, 1)): 1}
    # inside parentheses the minus applies to the first term of the group only
    v = parse_variety(head + "poly X1*(-X0 - X1) + (-X2^2)\n")
    assert dict(v.polys[0].terms) == {((0, 1), (1, 1)): 6, ((1, 2),): 6, ((2, 2),): 6}


# a comment and a blank line first, so every line number counts them
_HEAD = "# header\n\nfield p=5\nambient affine dim=2 vardim=1\n"


@pytest.mark.parametrize("text, error, message", [
    ("# only a comment\nfield p=5\n", ParseError,
     "<string>: expected a field line and an ambient line"),
    ("# header\n\nfield 5\nambient affine dim=2 vardim=1\n", ParseError,
     "line 3: expected 'field p=<prime>', got 'field 5'"),
    ("# header\n\nfield p=five\nambient affine dim=2 vardim=1\n", ParseError,
     "line 3: prime must be an integer, got 'five'"),
    ("# header\n\nfield p=9\nambient affine dim=2 vardim=1\n", InvalidPrime,
     "line 3: 9 is not prime"),
    ("# header\n\nfield p=5\nambient toric dim=2 vardim=1\n", ParseError,
     "line 4: expected 'ambient projective|affine dim=<N> vardim=<n>'"),
    ("# header\n\nfield p=5\nambient affine dim=2 vardim\n", ParseError,
     "line 4: expected key=value, got 'vardim'"),
    ("# header\n\nfield p=5\nambient affine dim=2 rank=1\n", ParseError,
     "line 4: ambient line needs dim=<N> vardim=<n>"),
    ("# header\n\nfield p=5\nambient affine dim=two vardim=1\n", ParseError,
     "line 4: dim and vardim must be integers"),
    ("# header\n\nfield p=5\nambient affine vardim=1 dim=-2\n", ParseError,
     "line 4: dim and vardim must be non-negative"),
    (_HEAD + "poly X0\n\nequation X1\n", ParseError,
     "line 7: expected 'poly <expression>', got 'equation X1'"),
    (_HEAD + "poly X0\n# X1\npolyX1\n", ParseError,
     "line 7: expected whitespace after 'poly'"),
], ids=["no-ambient-line", "field-line", "prime-not-int", "prime-not-prime", "ambient-kind",
        "key-value", "missing-dim", "dim-not-int", "dim-negative", "not-poly", "poly-space"])
def test_parse_header_and_poly_line_errors_name_their_line(text, error, message):
    with pytest.raises(error) as info:
        parse_variety(text)
    assert str(info.value) == message


def test_parse_refuses_huge_expansions_fast():
    start = time.perf_counter()
    with pytest.raises(ParseError,
                       match=r"line 3 col 19: .* takes this file past \d+ term pairs"):
        parse_variety("field p=5\nambient affine dim=2 vardim=1\n"
                      "poly (X0 + X1 + 1)^200000\n")
    # a product of two powers that each stay under the limit
    with pytest.raises(ParseError, match=r"line 3 col 23: product of 861 by 861 terms"):
        parse_variety("field p=101\nambient affine dim=2 vardim=1\n"
                      "poly (X0 + X1 + 1)^40 * (X0 + X1 + 1)^40\n")
    assert time.perf_counter() - start < 5.0


def test_expansion_limit_holds_per_file():
    # expanding (X0 + X1 + 1)^50 takes 133,218 term pairs: one line stays
    # under the limit, two pass it together
    head = "field p=101\nambient affine dim=2 vardim=1\n"
    line = "poly (X0 + X1 + 1)^50\n"
    assert len(parse_variety(head + line).polys[0].terms) == 1326
    with pytest.raises(ParseError, match=r"^line 4 col 19: product of 190 by 561 terms "
                                         r"takes this file past 262144 term pairs$"):
        parse_variety(head + line + line)


def test_product_chain_parses_in_bounded_memory():
    # the factors of a * chain merge as they arrive, so that the chain keeps
    # O(log n) partial products alive, not n one-term dicts at once
    n = 20000
    text = (f"field p=2\nambient affine dim={n} vardim=0\npoly "
            + "*".join(f"X{i}" for i in range(n)) + "\n")
    tracemalloc.start()
    try:
        v = parse_variety(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.polys[0].terms == ((tuple((i, 1) for i in range(n)), 1),)
    assert peak < 12 * 2**20


def test_parse_refuses_deep_nesting():
    head = "field p=5\nambient affine dim=1 vardim=0\npoly "
    v = parse_variety(head + "(" * 50 + "X0" + ")" * 50 + "\n")
    assert str(v.polys[0]) == "X0"
    for depth in (300, 3000):
        with pytest.raises(ParseError, match=r"line 3 col 106: parentheses nested deeper"):
            parse_variety(head + "(" * depth + "X0" + ")" * depth + "\n")


def test_parse_rejects_unreadable_integers():
    head = "field p=5\nambient affine dim=1 vardim=0\n"
    with pytest.raises(ParseError, match="line 3 col 9: invalid integer"):
        parse_variety(head + "poly X0^" + "9" * 5000 + "\n")
    with pytest.raises(ParseError, match="line 3 col 6: invalid integer"):
        parse_variety(head + "poly X0\u00b2 - 1\n")


def test_projective_polynomials_must_be_homogeneous():
    with pytest.raises(NotHomogeneous):
        parse_variety("field p=5\nambient projective dim=2 vardim=1\npoly X0^2 + X1\n")
    # affine ambient accepts inhomogeneous equations
    v = parse_variety(CONIC_F5)
    assert not v.polys[0].is_homogeneous()


def test_multipoly_str_and_homogeneity():
    poly = MultiPoly.from_dict(3, {((0, 3),): 4, ((0, 1), (2, 2)): 1}, 5)
    assert poly.is_homogeneous()
    assert "X0" in str(poly)
    # terms sort as their exponent vectors (1, 0, 2) < (3, 0, 0) would
    assert str(poly) == "X0*X2^2 + 4*X0^3"


def test_projective_space_counts_match_closed_form():
    assert count_points(parse_variety(P1_F2), 1) == 3
    assert count_points(parse_variety(P1_F2), 2) == 5
    assert count_points(parse_variety(P1_F2), 3) == 9
    assert count_points(parse_variety(P2_F3), 1) == 13
    assert count_points(parse_variety(P2_F3), 2) == 91
    assert count_points(parse_variety(P2_F3), 3) == 757


def test_elliptic_curve_counts_frozen():
    v = parse_variety(ELL_F5)
    assert count_points(v, 1) == 8
    assert count_points(v, 2) == 32
    assert count_points(v, 3) == 104
    series = count_series(v, 4)
    assert series.q == 5
    assert series.counts == (8, 32, 104, 640)


def test_count_points_matches_naive_orbit_count():
    # elliptic curve over F_5: x0 = x, x1 = y, x2 = z
    f = lambda c: c[1] ** 2 * c[2] - c[0] ** 3 + c[0] * c[2] ** 2
    assert count_points(parse_variety(ELL_F5), 1) == _naive_projective_count_mod_p(5, [f], 2)
    # quadric x^2 + y^2 + z^2 = 0 in P^2 over F_3
    quadric = parse_variety("field p=3\nambient projective dim=2 vardim=1\npoly X0^2 + X1^2 + X2^2\n")
    g = lambda c: c[0] ** 2 + c[1] ** 2 + c[2] ** 2
    assert count_points(quadric, 1) == _naive_projective_count_mod_p(3, [g], 2)


def test_affine_counts_match_naive_scan():
    v = parse_variety(CONIC_F5)
    assert count_points(v, 1) == _naive_affine_count_mod_p(5, lambda x, y: x * x + y * y - 1)
    assert count_points(v, 1) == 4
    assert count_points(v, 2) == 24
    # exponents at and past q - 1 = 8 over F_9, and a huge one over F_243
    for expr, m, expected in (
        ("X0^8 - 1", 2, 8),  # e = q - 1: every nonzero x
        ("X0^8", 2, 1),  # x^(q-1) still vanishes at zero
        ("X0^24 - 1", 2, 8),  # e = 3(q - 1)
        ("X0^25 - X0", 2, 9),  # e = 3(q - 1) + 1: x^e = x everywhere
        ("X0^20000 - X0^2", 5, 23),  # x^154 = 1 has gcd(154, 242) = 22 roots
    ):
        v = parse_variety(f"field p=3\nambient affine dim=1 vardim=0\npoly {expr}\n")
        assert count_points(v, m) == expected


def test_budget_cap_on_enumeration():
    with pytest.raises(EnumerationBudgetExceeded):
        count_points(parse_variety(ELL_F5), 1, budget=5)
    # the budget is counted in enumerated representatives
    assert count_points(parse_variety(P2_F3), 2, budget=91) == 91
    with pytest.raises(EnumerationBudgetExceeded):
        count_points(parse_variety(P2_F3), 2, budget=90)
    # one projective point, but its polynomial is evaluated on F_{p^m} codes,
    # so the field size counts too
    point = "field p=2\nambient projective dim=0 vardim=0\npoly {}\n"
    assert count_points(parse_variety(point.format("X0")), 9, budget=512) == 0
    with pytest.raises(EnumerationBudgetExceeded, match=r"F_2\^10 exceed budget 512"):
        count_points(parse_variety(point.format("X0")), 10, budget=512)
    # zero polynomials need no table, but the field size is capped all the same
    assert count_points(parse_variety(point.format("2*X0")), 1, budget=2) == 1
    with pytest.raises(EnumerationBudgetExceeded, match=r"F_2\^100 exceed budget 1"):
        count_points(parse_variety(point.format("2*X0")), 100, budget=1)


def test_ec_count_matches_naive_scan():
    for a, b, p in ((-1, 0, 5), (1, 1, 7), (2, 4, 11), (0, 1, 13)):
        naive = 1 + _naive_affine_count_mod_p(p, lambda x, y: y * y - (x**3 + a * x + b))
        assert ec_count(a, b, p) == naive


def test_ec_count_frozen_values():
    assert ec_count(-1, 0, 5) == 8
    assert ec_count(-1, 0, 7) == 8
    assert ec_count(-1, 0, 13) == 8


def test_ec_count_rejects_singular_and_small_characteristic():
    with pytest.raises(SingularCurve):
        ec_count(0, 0, 5)
    with pytest.raises(SingularCurve):
        ec_count(-3, 2, 7)
    with pytest.raises(UnsupportedCharacteristic):
        ec_count(1, 1, 2)
    with pytest.raises(UnsupportedCharacteristic):
        ec_count(1, 1, 3)


def test_weierstrass_variety_agrees_with_character_count():
    for a, b, p in ((-1, 0, 5), (1, 1, 7), (2, 4, 11)):
        v = weierstrass_variety(a, b, p)
        assert count_points(v, 1) == ec_count(a, b, p)
        assert v.p == p and v.ambient == "projective"


def test_point_zero_dimensional_space():
    v = parse_variety("field p=5\nambient projective dim=0 vardim=0\n")
    assert count_points(v, 1) == 1
    assert count_points(v, 3) == 1


def test_affine_zero_dimensional_space():
    # the ambient is one point, which only a nonzero constant removes
    head = "field p=5\nambient affine dim=0 vardim=0\n"
    for polys, expected in (("", 1), ("poly 0\npoly 5\n", 1), ("poly 3\n", 0),
                            ("poly 0\npoly 2 - 4\n", 0)):
        v = parse_variety(head + polys)
        assert [count_points(v, m) for m in (1, 2, 3)] == [expected] * 3, polys


def test_variety_spec_rejects_negative_dimensions():
    for dims in ((-1, 0), (1, -1)):
        with pytest.raises(ParseError, match="dim and vardim must be non-negative"):
            VarietySpec(5, "projective", *dims, ())


def test_variety_spec_and_count_series_constructors_check_their_fields():
    # the constructors called directly, not through the parser's own checks
    mixed = MultiPoly.from_dict(2, {((0, 2),): 1, ((1, 1),): 1}, 5)
    with pytest.raises(InvalidPrime, match="^field characteristic 4 is not prime$"):
        VarietySpec(4, "affine", 1, 0, ())
    with pytest.raises(ParseError, match="^unknown ambient 'weighted'$"):
        VarietySpec(5, "weighted", 1, 0, ())
    with pytest.raises(NotHomogeneous, match=re.escape(
            "projective ambient requires homogeneous polynomials, "
            "got degrees [1, 2] in X1 + X0^2")):
        VarietySpec(5, "projective", 1, 0, (mixed,))
    assert VarietySpec(5, "affine", 2, 1, (mixed,)).nvars == 2
    with pytest.raises(InvalidInput, match="^point counts must be non-negative$"):
        PointCountSeries(5, (6, -1))
    v = parse_variety(P1_F2)
    with pytest.raises(InvalidDegree, match="^extension degree must be >= 1$"):
        count_points(v, 0)
    with pytest.raises(InvalidDegree, match="^m_max must be >= 1$"):
        count_series(v, 0)


def test_multipoly_equality_and_hash_follow_the_fields():
    a = MultiPoly.from_dict(2, {((0, 2),): 1, ((1, 1),): 3}, 5)
    b = MultiPoly(2, a.terms)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != MultiPoly(3, a.terms)
    assert a != MultiPoly.from_dict(2, {((0, 2),): 1, ((1, 1),): 2}, 5)
    assert a != a.terms


def _prime_powers(limit):
    for p in primes_in_range(2, limit):
        q, m = p, 1
        while q <= limit:
            yield p, m
            q, m = q * p, m + 1


def _elements(p, m):
    """F_{p^m} in enumeration order, as trimmed coefficient tuples low first."""
    out = []
    for idx in range(p ** m):
        digits = []
        while idx:
            digits.append(idx % p)
            idx //= p
        out.append(tuple(digits))
    return out


def _index(x, p):
    return sum(c * p ** i for i, c in enumerate(x))


def test_zech_tables_match_exact_arithmetic():
    for p, m in _prime_powers(1024):
        field = _IndexedField(p, m)
        f = make_field(p, m)
        gen = _IndexedField._find_generator(p, m, f)
        powers = [(1,)]
        for _ in range(field.q - 2):
            powers.append(_pmod(_pmul(powers[-1], gen, p), f, p))
        index = [_index(x, p) for x in powers]
        # distinct powers g^0..g^(q-2) make g a generator
        assert len(set(index)) == field.q - 1
        assert [field.log[i] for i in index] == list(range(field.q - 1))
        for x, code in zip(powers, field.zech):
            # x + 1, written as x - (-1)
            assert _index(_psub(x, (-1,), p), p) == (index[code - 1] if code else 0)


def _monomial(exps):
    """Sparse monomial ((v, e), ...) of a mapping from variables to exponents."""
    return tuple(sorted((v, e) for v, e in exps.items() if e))


def _random_system(rng, p, nvars, homogeneous):
    polys = []
    for _ in range(rng.randint(1, 2)):
        degree = rng.randint(1, 4)
        coeffs = {}
        for _ in range(rng.randint(1, 4)):
            if homogeneous:
                exps = Counter(rng.randrange(nvars) for _ in range(degree))
            else:
                exps = {v: rng.choice((0, 1, 2, 3, p, 7, 9, 26)) for v in range(nvars)}
            coeffs[_monomial(exps)] = rng.randrange(1, p)
        polys.append(MultiPoly.from_dict(nvars, coeffs, p))
    return polys


def _brute_force_count(polys, p, m, projective):
    """Zeros evaluated on coefficient tuples modulo make_field(p, m);
    projective points as the tuples whose last nonzero coordinate is one."""
    f = make_field(p, m)
    count = 0
    for pt in product(_elements(p, m), repeat=polys[0].nvars):
        if projective and [x for x in pt if x][-1:] != [(1,)]:
            continue
        for poly in polys:
            # minus the value of poly, which is zero exactly when the value is
            acc = ()
            for mono, c in poly.terms:
                term = (c,)
                for v, e in mono:
                    term = _pmod(_pmul(term, _ppowmod(pt[v], e, f, p), p), f, p)
                acc = _psub(acc, term, p)
            if acc:
                break
        else:
            count += 1
    return count


def _system_text(p, polys, projective):
    nvars = polys[0].nvars
    ambient = "projective" if projective else "affine"
    dim = nvars - 1 if projective else nvars
    return (f"field p={p}\nambient {ambient} dim={dim} vardim=0\n"
            + "".join(f"poly {poly}\n" for poly in polys))


def _weierstrass_poly(rng, p, nvars, projective):
    """y^2 + a1 xy + a3 y - x^3 - a2 x^2 - a4 x - a6, homogenized by z in P^2."""
    a1, a2, a3, a4, a6 = (rng.randrange(p) for _ in range(5))
    # x, y, z are X0, X1, X2; the affine curve (nvars = 2) sets z = 1
    coeffs = {((1, 2), (2, 1)): 1, ((0, 1), (1, 1), (2, 1)): a1, ((1, 1), (2, 2)): a3,
              ((0, 3),): -1, ((0, 2), (2, 1)): -a2, ((0, 1), (2, 2)): -a4, ((2, 3),): -a6}
    return MultiPoly.from_dict(
        nvars, {tuple(ve for ve in mono if ve[0] < nvars): c for mono, c in coeffs.items()}, p)


def _quadric_poly(rng, p, nvars, projective, diagonal):
    """Random quadric; affine ones get linear and constant terms as well."""
    pairs = [(i, i) for i in range(nvars)] if diagonal else \
        [(i, j) for i in range(nvars) for j in range(i, nvars)]
    if not projective:
        pairs += [(i, None) for i in range(nvars)] + [(None, None)]
    coeffs = {}
    for pair in pairs:
        coeffs[_monomial(Counter(i for i in pair if i is not None))] = rng.randrange(p)
    return MultiPoly.from_dict(nvars, coeffs, p)


def _quadratic_in_one(rng, p, nvars, projective):
    """Random polynomial of degree <= 2 in one random variable, any degree in the rest."""
    v = rng.randrange(nvars)
    degree = rng.randint(2, 4)
    coeffs = {}
    for _ in range(rng.randint(1, 5)):
        if projective:
            exps = Counter({v: rng.randint(0, 2) if nvars > 1 else degree})
            for _ in range(degree - exps[v]):
                exps[rng.choice([i for i in range(nvars) if i != v])] += 1
        else:
            exps = {i: rng.choice((0, 1, 2, 3, p, 7)) for i in range(nvars)}
            exps[v] = rng.randint(0, 2)
        coeffs[_monomial(exps)] = rng.randrange(1, p)
    return MultiPoly.from_dict(nvars, coeffs, p)


def test_count_points_matches_exact_brute_force():
    rng = random.Random(2)
    for p, m in product((2, 3, 5, 7), (2, 3)):
        for projective in (False, True):
            # keep the brute-force scan near 700 tuples (affine q^n, projective ~q^(n-1))
            nvars = 2 if projective else 1
            while (p ** m) ** (nvars + (0 if projective else 1)) <= 700:
                nvars += 1
            polys = _random_system(rng, p, nvars, projective)
            text = _system_text(p, polys, projective)
            assert count_points(parse_variety(text), m) == _brute_force_count(polys, p, m, projective)
    # single polynomials of degree <= 2 in some variable, which odd p counts
    # by the quadratic character: every m whose scan of q^n tuples stays
    # within 729 = 3^6, with n up to 4 as that allows (n = 3 for curves)
    families = (
        ("weierstrass", _weierstrass_poly),
        ("diagonal quadric", lambda *args: _quadric_poly(*args, diagonal=True)),
        ("quadric", lambda *args: _quadric_poly(*args, diagonal=False)),
        ("quadratic in one variable", _quadratic_in_one),
    )
    rng = random.Random(3)
    for p in (2, 3, 5, 7):
        for projective in (False, True):
            for name, draw in families:
                fixed = (3 if projective else 2) if name == "weierstrass" else None
                m = 1
                while (p ** m) ** (fixed or 2) <= 729:
                    nvars = fixed or max(n for n in range(2, 5) if (p ** m) ** n <= 729)
                    polys = [draw(rng, p, nvars, projective)]
                    text = _system_text(p, polys, projective)
                    assert count_points(parse_variety(text), m) == \
                        _brute_force_count(polys, p, m, projective), (name, text, m)
                    m += 1


@pytest.mark.parametrize("p, m, ambient, expr, expected", [
    # a = 0 != b: one root in X1 wherever X0 != 0; at X0 = 0, a = b = 0 != c
    (5, 1, "affine dim=2", "X0*X1 - 1", 4),
    # a = b = 0 everywhere (X1 absent): every X1 over the 3 cube roots of 1 in F_7
    (7, 1, "affine dim=2", "X0^3 - 1", 21),
    # b = 0 != c: 1 + chi(4 X0) roots, which sum to q
    (7, 1, "affine dim=2", "X1^2 - X0", 7),
    # zero discriminant wherever X0 != 0, and c = 0 at X0 = 0: (X0 + X1)^2
    (5, 2, "affine dim=2", "X1^2 + 2*X0*X1 + X0^2", 25),
    # X2 is eliminated, and (0 : 0 : 1), where it is the leading 1, lies on the conic
    (3, 2, "projective dim=2", "X0^2 - X1*X2", 10),
    # X0 (degree 2) is eliminated but fixed to 1 or 0 in every stratum of P^1
    (5, 1, "projective dim=1", "X0^2*X1 - X1^3", 3),
])
def test_quadratic_elimination_branches(p, m, ambient, expr, expected):
    v = parse_variety(f"field p={p}\nambient {ambient} vardim=0\npoly {expr}\n")
    assert count_points(v, m) == expected
    assert _brute_force_count(v.polys, p, m, v.ambient == "projective") == expected


def test_count_points_invariant_under_coordinate_permutations():
    # a permutation moves which variable is eliminated and where it sits
    # relative to the leading 1 of the projective normalization; systems of
    # 2 or 3 polynomials, each permuted alike, take the enumeration path
    rng = random.Random(5)
    for p, m, projective, nvars in ((3, 2, True, 3), (5, 1, True, 4), (7, 1, False, 3),
                                    (3, 1, False, 4), (2, 3, True, 3)):
        for size in (1, 1, 1, 1, 1, 1, 2, 2, 3, 3):
            polys = [_quadratic_in_one(rng, p, nvars, projective) for _ in range(size)]
            counts = set()
            for perm in permutations(range(nvars)):
                # X_perm[k] becomes X_k
                moved = {old: new for new, old in enumerate(perm)}
                permuted = [MultiPoly.from_dict(
                    nvars, {_monomial({moved[v]: e for v, e in mono}): c
                            for mono, c in poly.terms}, p)
                    for poly in polys]
                counts.add(count_points(parse_variety(_system_text(p, permuted, projective)), m))
            assert len(counts) == 1, (polys, counts)


def _per_point_count(v, m):
    """count_points as a per-point loop: at every normalized representative,
    each polynomial is evaluated by a closure over the Zech tables, a later
    one only where the earlier ones vanish; no substitution, no tabulation
    and no quadratic elimination."""
    field = _IndexedField(v.p, m)
    q, zech = field.q, field.zech
    qm1 = q - 1

    def compile_poly(terms):
        terms = tuple((field.log[c], tuple((u, e % qm1) for u, e in mono)) for mono, c in terms)

        def ev(point):
            acc = 0
            for t, varpows in terms:
                for u, e in varpows:
                    x = point[u]
                    if not x:
                        break
                    t += e * (x - 1)
                else:
                    if acc:
                        z = zech[(t - acc + 1) % qm1]
                        acc = (acc + z - 2) % qm1 + 1 if z else 0
                    else:
                        acc = t % qm1 + 1
            return acc
        return ev

    evals = [compile_poly(poly.terms) for poly in v.polys]
    n = v.nvars
    if v.ambient == "affine":
        strata = [[range(q)] * n]
    else:
        strata = [[(0,)] * lead + [(1,)] + [range(q)] * (n - lead - 1) for lead in range(n)]
    return sum(1 for ranges in strata for pt in product(*ranges)
               if not any(ev(pt) for ev in evals))


def _stratum_poly(rng, p, q, nvars, projective, quadratic):
    """Random polynomial with terms of every kind the counting loop splits
    a stratum by, for X_k the last or the second-to-last coordinate: free of
    both, in one of them alone (exponents up to 2(q-1), q-1 among them), or
    one of them times others. With quadratic, X_{nvars-1} has degree <= 2,
    so a lone polynomial over odd p eliminates it."""
    last = nvars - 1
    degree = rng.choice((1, 2, 3, q - 1, q + 1))
    exps_alone = (1, 2, 3, q - 1, q, 2 * (q - 1))
    others = list(range(nvars - 2))
    coeffs = {}
    for _ in range(rng.randint(1, 6)):
        kind = rng.choice(("outer", "alone", "mixed", "constant"))
        v = rng.choice((last, last - 1))
        if projective:
            if kind == "alone" or not others:
                exps = Counter({v: degree})
            else:
                exps = Counter(rng.choice(others) for _ in range(degree - (kind == "mixed")))
                exps[v] += kind == "mixed"
            if quadratic and exps[last] > 2:
                exps[rng.choice(others or [last - 1])] += exps[last] - 2
                exps[last] = 2
        else:
            exps = Counter()
            if kind == "alone":
                exps[v] = rng.choice(exps_alone)
            elif kind != "constant":
                for u in rng.sample(others, min(len(others), rng.randint(1, 2))):
                    exps[u] = rng.choice((1, 2, 3, q - 1))
                if kind == "mixed":
                    exps[v] = rng.choice(exps_alone)
            if quadratic:
                exps[last] = min(exps[last], 2)
        coeffs[_monomial(exps)] = rng.randrange(1, p)
    return MultiPoly.from_dict(nvars, coeffs, p)


def test_stratum_split_matches_the_per_point_loop():
    # P^3, P^4, A^3 and A^4 over fields of 2 to 9 elements, with 1-3
    # polynomials; projective strata fix their leading coordinate to 1 while
    # the eliminated X_{n-1} is free, and the stratum before the last has
    # X_{n-1} as its only free coordinate
    rng = random.Random(4111)
    fields = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1))
    eliminated = 0
    for case in range(400):
        p, m = rng.choice(fields)
        q = p ** m
        projective = case % 2 == 0
        # at most 4,096 affine tuples or about as many projective ones
        nvars = rng.choice([n for n in (3, 4, 5)
                            if (n < 5 or projective) and q ** (n - projective) <= 4096])
        size = rng.choice((1, 1, 2, 3))
        quadratic = size == 1 and rng.random() < 0.7
        polys = [_stratum_poly(rng, p, q, nvars, projective, quadratic) for _ in range(size)]
        text = _system_text(p, polys, projective)
        eliminated += quadratic and p != 2 and not polys[0].is_zero()
        v = parse_variety(text)
        assert count_points(v, m) == _per_point_count(v, m), (case, m, text)
    # single polynomials counted by the quadratic character
    assert eliminated >= 60


def test_multipoly_str_round_trips_through_the_parser():
    rng = random.Random(31)
    for case in range(300):
        p = rng.choice((2, 3, 5, 7, 11))
        projective = rng.random() < 0.5
        nvars = rng.randint(1, 4)
        degree = rng.randint(0, 5)
        coeffs = {}
        # the first case of every ten is the zero polynomial
        for _ in range(0 if case % 10 == 0 else rng.randint(1, 6)):
            if projective:
                exps = Counter(rng.randrange(nvars) for _ in range(degree))
            else:
                exps = {v: rng.randint(0, 5) for v in range(nvars)}
            coeffs[_monomial(exps)] = rng.randint(-2 * p, 2 * p)
        poly = MultiPoly.from_dict(nvars, coeffs, p)
        parsed = parse_variety(_system_text(p, [poly], projective)).polys[0]
        assert parsed == poly, (p, projective, str(poly))
