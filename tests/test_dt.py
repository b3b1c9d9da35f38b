"""Partition functions for degree-zero counts on affine 3-space."""

import hashlib
import json
import random
from fractions import Fraction
from math import comb

import pytest
from test_main import _in_main

from arithdt import dt
from arithdt.dt import (
    macmahon,
    macmahon_symmetric,
    partition_function,
    z_arithmetic,
    z_complex,
    z_motivic,
    z_real,
)
from arithdt.fields import CC, QQ, RR, finite_field
from arithdt.gw import GwElement
from arithdt.gaussian import GAUSSIAN_RING
from arithdt.gwalpha import GaussianInteger, GwAlphaElement, alpha_power, gw_alpha_ring
from arithdt.motivic import MOTIVIC_RING, MotivicClass, chi_a1, chi_complex, grassmannian_class
from arithdt.partitions import count_plane_partitions, is_transpose_symmetric, plane_partitions
from arithdt.potential import (
    MatrixTriple,
    commutator,
    gradient_vanishes,
    trace_potential,
    trace_potential_gradient,
)
from arithdt.series import INT_RING, TruncatedSeries

# frozen by hand from the factored product: the first factor alone gives t^1,
# degree-2 contributions add the inverse pair factors of weight m = 2
T1 = MotivicClass.u_power(3)
T2 = MotivicClass([(2, 1), (4, 1), (6, 1)])
T3 = MotivicClass([(1, 1), (3, 1), (5, 2), (7, 1), (9, 1)])


def test_motivic_series_low_coefficients():
    series = z_motivic(6)
    assert series.coeffs[0] == MotivicClass.one()
    assert series.coeffs[1] == T1
    assert series.coeffs[2] == T2
    assert series.coeffs[3] == T3


def test_motivic_coefficients_land_in_shifted_polynomial_ring():
    series = z_motivic(10)
    for n in range(1, 11):
        coeff = series.coeffs[n]
        assert coeff.u_terms[0][0] >= -3 * n
        assert coeff.u_terms[-1][0] == 3 * n
        assert coeff.u_terms[-1][1] == 1  # top multiplicity one
        assert all((e - 3 * n) % 2 == 0 for e, _ in coeff.u_terms)


def test_complex_specialization_counts_plane_partitions():
    series = z_motivic(9)
    for n in range(10):
        assert chi_complex(series.coeffs[n]) == (-1) ** n * count_plane_partitions(n)


def _z_arithmetic_product(order, field):
    """The arithmetic series multiplied out from its own factored product.

    For each m the m paired signs combine into
    (1 - (alpha t)^m H + <-1> (alpha t)^{2m})^{-floor(m/2)}, and odd m leave
    one unpaired factor (1 - (<-1>alpha t)^m)^{-1}.  The <-1> on the unpaired
    factor is forced by the morphism (L^{-m/2} maps to alpha^{-m} =
    <-1>^m alpha^m) and by the real specialization, which expands in powers
    of -it.
    """
    ring = gw_alpha_ring(field)
    minus_one = GwElement.unit(field, -1)
    hyper = GwAlphaElement.from_even(GwElement.hyperbolic(field))
    result = TruncatedSeries.one(ring, order)
    for m in range(1, order + 1):
        paired = {
            0: ring.one,
            m: -(alpha_power(field, m) * hyper),
            2 * m: minus_one * alpha_power(field, 2 * m),
        }
        result = result / TruncatedSeries.from_terms(ring, order, paired) ** (m // 2)
        if m % 2:
            unpaired = {0: ring.one, m: -(alpha_power(field, m) * minus_one)}
            result = result / TruncatedSeries.from_terms(ring, order, unpaired)
    return result


FIELDS = [QQ, RR, CC, finite_field(3), finite_field(5), finite_field(7)]


@pytest.mark.parametrize("order", [*range(1, 13), 30])
@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_arithmetic_series_matches_factored_product(field, order):
    assert z_arithmetic(order, field) == _z_arithmetic_product(order, field)


def test_arithmetic_series_refines_motivic_series():
    order = 8
    product_form = _z_arithmetic_product(order, QQ)
    mapped = z_motivic(order).map_coeffs(lambda c: chi_a1(c, QQ), gw_alpha_ring(QQ))
    for a, b in zip(product_form.coeffs, mapped.coeffs):
        assert a.gw_equal(b)


def test_arithmetic_series_over_other_fields():
    f7 = finite_field(7)
    assert z_arithmetic(5, f7).coeffs[0].field == f7
    product_form = _z_arithmetic_product(5, f7)
    mapped = z_motivic(5).map_coeffs(lambda c: chi_a1(c, f7), gw_alpha_ring(f7))
    assert all(a.gw_equal(b) for a, b in zip(product_form.coeffs, mapped.coeffs))


def test_rank_specialization_is_macmahon_at_minus_t():
    order = 10
    za = z_arithmetic(order)
    mm = macmahon(order)
    assert tuple(q.numeric_complex() for q in za.coeffs) == tuple(
        (-1) ** n * mm.coeffs[n] for n in range(order + 1)
    )


def test_signature_specialization_is_symmetric_macmahon_at_minus_it():
    order = 10
    za = z_arithmetic(order)
    ms = macmahon_symmetric(order)
    assert tuple(q.numeric_real() for q in za.coeffs) == tuple(
        GaussianInteger(0, 1) ** (-n % 4) * ms.coeffs[n] for n in range(order + 1)
    )


def test_macmahon_low_coefficients():
    assert macmahon(3).coeffs == (1, 1, 3, 6)
    assert macmahon_symmetric(1).coeffs[0] == 1


def _z_motivic_at(order, u):
    """Z(T u) over Z at the integer ``u``, each [m choose j]_q built from
    [m choose j-1]_q by the incremental rule, which divides by q^j - 1 and so
    takes the ordinary binomial rule at q = 1 and cannot reach q = -1."""
    q = u * u
    result = TruncatedSeries.one(INT_RING, order)
    for m in range(1, order + 1):
        terms, binomial = {0: 1}, 1
        for j in range(1, min(m, order // m) + 1):
            if q == 1:
                binomial = binomial * (m - j + 1) // j
            else:
                binomial = binomial * (q ** (m - j + 1) - 1) // (q**j - 1)
            terms[j * m] = (-1) ** j * u ** (j * (j + 3)) * binomial
        result = result / TruncatedSeries.from_terms(INT_RING, order, terms)
    return result


def _macmahon_symmetric_product(order):
    """M^sym multiplied out from its own product, one division per factor."""
    result = TruncatedSeries.one(INT_RING, order)
    for m in range(1, order + 1):
        # odd m = 2n - 1 has exponent 1, even m = 2n has exponent floor(n/2)
        factor = TruncatedSeries.from_terms(INT_RING, order, {0: 1, m: -1})
        result = result / factor ** (1 if m % 2 else m // 4)
    return result


def _z_at_q_binomial(order, q):
    """Z(T u) over Z at u^2 = ``q``, divided once per m.

    The m factors 1 - u^4 q^k T^m, k < m, multiply out by the q-binomial
    theorem to sum_j (-1)^j u^{j(j+3)} [m choose j]_q T^{jm}; j(j+3) is even,
    so u^{j(j+3)} is q^{j(j+3)/2}.  Rows follow the q-Pascal rule
    [m, j] = [m-1, j-1] + q^j [m-1, j], for j <= order // m.
    """
    result = TruncatedSeries.one(INT_RING, order)
    row = [1]  # [m choose j]_q for j <= min(m, order // m), from m = 0
    for m in range(1, order + 1):
        row.append(0)  # the rule reads past the row only at j = m, where [m-1 choose m]_q = 0
        row = [1] + [row[j - 1] + q**j * row[j] for j in range(1, min(m, order // m) + 1)]
        terms = {j * m: (-1) ** j * q ** (j * (j + 3) // 2) * c for j, c in enumerate(row)}
        result = result / TruncatedSeries.from_terms(INT_RING, order, terms)
    return result


@pytest.mark.parametrize("order", [*range(1, 61), 100])
def test_series_kernel_matches_incremental_binomials_and_product(order):
    assert macmahon(order) == _z_motivic_at(order, 1)
    assert macmahon_symmetric(order) == _macmahon_symmetric_product(order)
    b = max(macmahon(order).coeffs).bit_length()
    assert dt._z_at(order, 4**b) == list(_z_motivic_at(order, 2**b).coeffs)
    # the recurrence against the q-binomial division, at u = 1, u = i, u = 2^b
    # and at q = 2^b, where z_motivic packs
    for q in (1, -1, 4**b, 2**b):
        assert dt._z_at(order, q) == list(_z_at_q_binomial(order, q).coeffs)


def _z_arithmetic_from_counts(order, field):
    """z_arithmetic rebuilt from M and M^sym alone.

    chi_a1 sends u to alpha, and alpha^4 = 1, so coefficient n is
    p0 <1> + p1 alpha + p2 <-1> + p3 <-1> alpha, where p_r adds the u-terms of
    z_n with exponent r mod 4.  Over the fourth roots of unity,
    p_r = (1/4) sum_k i^{-rk} z_n(i^k), with z_n(1) = M_n, z_n(-1) = (-1)^n M_n,
    z_n(i) = (-i)^n M^sym_n and z_n(-i) = i^n M^sym_n.
    """
    i = GaussianInteger(0, 1)
    coeffs = []
    for n, (mm, ms) in enumerate(zip(macmahon(order).coeffs, macmahon_symmetric(order).coeffs)):
        # z_n(i^k) for k = 0, 1, 2, 3
        values = (
            GaussianInteger(mm, 0), (-i) ** n * ms, GaussianInteger((-1) ** n * mm, 0), i**n * ms
        )
        parts = []
        for r in range(4):
            total = sum((i ** (-r * k % 4) * v for k, v in enumerate(values)), GaussianInteger(0, 0))
            assert total.im == 0 and total.re % 4 == 0
            parts.append(total.re // 4)
        p0, p1, p2, p3 = parts
        coeffs.append(GwAlphaElement(
            GwElement(field, [(1, p0), (-1, p2)]), GwElement(field, [(1, p1), (-1, p3)])
        ))
    return TruncatedSeries(gw_alpha_ring(field), order, coeffs)


@pytest.mark.parametrize("order", [1, 7, 30, 50])
@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_arithmetic_series_is_fixed_by_complex_and_real_counts(field, order):
    assert z_arithmetic(order, field) == _z_arithmetic_from_counts(order, field)


def _euler_product(ring, order, factors):
    """prod (1 - c t^m)^{-e} over (m, c, e), from products of closed forms only.

    Each factor is expanded as sum_j C(e+j-1, j) c^j t^{jm}, so the oracle
    shares no division, inverse or negative power with the library.
    """
    result = TruncatedSeries.one(ring, order)
    for m, c, e in factors:
        terms = {j * m: c**j * comb(e + j - 1, j) for j in range(order // m + 1)}
        result = result * TruncatedSeries.from_terms(ring, order, terms)
    return result


def test_euler_products_match_closed_form_oracle():
    order = 16
    motivic = [
        (m, MotivicClass.u_power(2 * k + 4 - m), 1) for m in range(1, order + 1) for k in range(m)
    ]
    assert z_motivic(order) == _euler_product(MOTIVIC_RING, order, motivic)
    plain = [(n, 1, n) for n in range(1, order + 1)]
    assert macmahon(order) == _euler_product(INT_RING, order, plain)
    odd = [(2 * n - 1, 1, 1) for n in range(1, (order + 1) // 2 + 1)]
    even = [(2 * n, 1, n // 2) for n in range(2, order // 2 + 1)]
    assert macmahon_symmetric(order) == _euler_product(INT_RING, order, odd + even)


def _z_motivic_linear_factors(order):
    """The motivic series divided by its N(N+1)/2 linear factors one at a time."""
    result = TruncatedSeries.one(MOTIVIC_RING, order)
    for m in range(1, order + 1):
        for k in range(m):
            c = MotivicClass.u_power(2 * k + 4 - m)
            factor = TruncatedSeries.from_terms(MOTIVIC_RING, order, {0: MOTIVIC_RING.one, m: -c})
            result = result / factor
    return result


@pytest.mark.parametrize("order", range(1, 31))
def test_whole_euler_factors_match_linear_factors(order):
    assert z_motivic(order) == _z_motivic_linear_factors(order)


def _z_motivic_q_binomial(order):
    """The motivic series divided once per m, by the q-binomial expansion of
    prod_{k<m} (1 - L^k x), x = u^{4-m} t^m, over MotivicClass."""
    result = TruncatedSeries.one(MOTIVIC_RING, order)
    for m in range(1, order + 1):
        terms = {0: MOTIVIC_RING.one}
        for j in range(1, min(m, order // m) + 1):
            shift = MotivicClass.u_power(j * (j - 1) + (4 - m) * j, (-1) ** j)
            terms[j * m] = shift * grassmannian_class(m, j)
        result = result / TruncatedSeries.from_terms(MOTIVIC_RING, order, terms)
    return result


@pytest.mark.parametrize("order", [*range(31, 41), 60])
def test_packed_series_matches_q_binomial_division(order):
    assert z_motivic(order) == _z_motivic_q_binomial(order)


@pytest.mark.parametrize("order", [1, 5, 12, 30])
@pytest.mark.parametrize("u", [2, 3, -2])
def test_series_kernel_evaluates_the_motivic_series(u, order):
    # coefficient n of Z(T u) is u^n z_n(u), and every u-exponent of u^n z_n is >= 0;
    # z_n is read off the MotivicClass division, which shares no code with the kernel
    expected = tuple(
        sum(c * u ** (e + n) for e, c in coeff.u_terms)
        for n, coeff in enumerate(_z_motivic_q_binomial(order).coeffs)
    )
    assert dt._z_at(order, u * u) == list(expected)


def test_packed_digits_are_nonnegative_and_sum_to_macmahon():
    # the packing reads base-2^b digits of Z(T u) at u = 2^b, T = t / u:
    # they carry nothing only if the coefficients of u^n z_n are >= 0 and sum to M_n < 2^b
    counts = macmahon(40).coeffs
    for order in range(1, 41):
        for n, coeff in enumerate(z_motivic(order).coeffs):
            assert not coeff.extras
            assert all(c > 0 and e >= -n for e, c in coeff.u_terms)
            assert sum(c for _, c in coeff.u_terms) == counts[n]


def test_motivic_job_at_a_raised_cap_evaluates_to_the_q_binomial_oracle():
    # the whole process at order 150, five times the default cap; the bound is a hang guard
    order = 150
    argv = ["dt-a3", "--order", str(order), "--output", "motivic", "--json"]
    code, out, err = _in_main(argv, env={"ARITHDT_MAX_ORDER": str(order)}, timeout=10)
    assert (code, err) == (0, b"")
    coeffs = json.loads(out)["series"]["coeffs"]
    counts = _z_at_q_binomial(order, 1).coeffs
    symmetric = _z_at_q_binomial(order, -1).coeffs
    i_power = ((1, 0), (0, 1), (-1, 0), (0, -1))  # i^k as (re, im), k mod 4
    assert len(coeffs) == order + 1
    for n, coeff in enumerate(coeffs):
        assert coeff["extras"] == {}
        # at u = 1 the class is M_n, and at u = i it is (-i)^n M^sym_n
        assert sum(c for _, c in coeff["u_coeffs"]) == counts[n]
        at_i = [sum(c * i_power[e % 4][part] for e, c in coeff["u_coeffs"]) for part in (0, 1)]
        assert at_i == [x * symmetric[n] for x in i_power[-n % 4]]


def _digest(series):
    return hashlib.sha256(json.dumps(series.to_json_dict(), sort_keys=True).encode()).hexdigest()


def test_order_thirty_series_are_pinned():
    # the default ARITHDT_MAX_ORDER cap; digests recorded from the dense
    # inverse-then-multiply construction
    assert _digest(z_motivic(30)) == (
        "f530f77734db88275dfeccd3a3e4038a9a6d48199880c171f5c050e2daa9a31a"
    )
    assert _digest(z_arithmetic(30)) == (
        "366b1a2b8a7bd12ddef6a0019d004759aa039f201556636183ceba2bd8d4579a"
    )


def test_partition_function_bundle():
    pf = partition_function(6)
    assert pf.arithmetic == z_motivic(6).map_coeffs(lambda c: chi_a1(c, QQ), gw_alpha_ring(QQ))
    assert pf.complex.coeffs == tuple(q.numeric_complex() for q in pf.arithmetic.coeffs)
    assert pf.real.coeffs == tuple(q.numeric_real() for q in pf.arithmetic.coeffs)
    assert pf.complex.coeffs == (1, -1, 3, -6, 13, -24, 48)


def _images_of_the_arithmetic_series(order, field):
    """The complex and real series as partition_function made them before each
    series had a route of its own: the rank and signature, alpha sent to -1 and
    to i, of the chi_a1 image of the motivic series over ``field`` if it is
    ordered, and over R if not."""
    ordered = field if field.is_ordered else RR
    image = z_motivic(order).map_coeffs(lambda c: chi_a1(c, ordered), gw_alpha_ring(ordered))
    return (image.map_coeffs(GwAlphaElement.numeric_complex, INT_RING),
            image.map_coeffs(GwAlphaElement.numeric_real, GAUSSIAN_RING))


@pytest.mark.parametrize("order", [*range(1, 31), 60])
@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_complex_and_real_routes_match_the_chi_a1_image(field, order):
    complex_series, real_series = _images_of_the_arithmetic_series(order, field)
    # the arithmetic series as it was made before it was read off M and M^sym
    arithmetic_series = z_motivic(order).map_coeffs(
        lambda c: chi_a1(c, field), gw_alpha_ring(field))
    pf = partition_function(order, field)
    for got, want in ((pf.complex, complex_series), (pf.real, real_series),
                      (z_complex(order), complex_series), (z_real(order), real_series),
                      (pf.arithmetic, arithmetic_series),
                      (z_arithmetic(order, field), arithmetic_series)):
        assert got == want
        assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())


def _transpose_plane_partition(pp):
    # row lengths do not increase, so the rows that reach column j are a prefix
    width = len(pp[0]) if pp else 0
    return tuple(tuple(row[j] for row in pp if j < len(row)) for j in range(width))


@pytest.mark.parametrize("n", range(11))
def test_arithmetic_coefficients_count_transpose_orbits(n):
    # Burnside for transposition on the plane partitions of n: s fixed points give s <1>,
    # and f two-element orbits give f <1> + f <-1> = f H, with no MacMahon series used
    fixed, orbits = 0, set()
    for pp in plane_partitions(n):
        transpose = _transpose_plane_partition(pp)
        assert is_transpose_symmetric(pp) == (transpose == pp)
        if transpose == pp:
            fixed += 1
        else:
            orbits.add(min(pp, transpose))
    pairs = len(orbits)
    form = GwAlphaElement.from_even(GwElement(QQ, [(1, fixed + pairs), (-1, pairs)]))
    assert alpha_power(QQ, n) * z_arithmetic(10).coeffs[n] == form


@pytest.mark.parametrize("field", [RR, QQ, finite_field(5)], ids=str)
def test_partition_function_takes_no_chi_a1_image(field, monkeypatch):
    # every series but the motivic one is read off M and M^sym, so no field takes
    # a chi_a1 image, over itself or over R
    from arithdt import motivic

    seen = []

    def counted(m, *args):
        seen.append(m)
        return chi_a1(m, *args)

    monkeypatch.setattr(motivic, "chi_a1", counted)
    pf = partition_function(30, field)
    assert seen == []
    assert pf.arithmetic.coeffs[0].field == field
    assert (pf.complex, pf.real) == _images_of_the_arithmetic_series(30, field)


@pytest.mark.parametrize("order", [1, 7, 30])
def test_rank_and_signature_of_the_image_over_q_are_those_over_r(order):
    motivic = z_motivic(order)
    over_q = motivic.map_coeffs(lambda c: chi_a1(c, QQ), gw_alpha_ring(QQ))
    over_r = motivic.map_coeffs(lambda c: chi_a1(c, RR), gw_alpha_ring(RR))
    for q, r in zip(over_q.coeffs, over_r.coeffs, strict=True):
        assert q.numeric_complex() == r.numeric_complex()
        assert q.numeric_real() == r.numeric_real()


# -- the trace potential ---------------------------------------------------------


def _random_matrix(rng, n):
    return [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]


def _commuting_triple(rng, n):
    # polynomials in one matrix always commute
    base = _random_matrix(rng, n)
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    def poly(c0, c1):
        return [
            [c0 * eye[i][j] + c1 * base[i][j] for j in range(n)] for i in range(n)
        ]

    return MatrixTriple.of(
        poly(rng.randint(-2, 2), rng.randint(-2, 2)),
        poly(rng.randint(-2, 2), rng.randint(-2, 2)),
        poly(rng.randint(-2, 2), rng.randint(-2, 2)),
    )


def test_commuting_pairs_give_zero_value_and_zero_c_gradient():
    rng = random.Random(101)
    for _ in range(20):
        n = rng.choice((2, 3))
        t = _commuting_triple(rng, n)
        assert trace_potential(t) == 0
        zero = tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n))
        assert trace_potential_gradient(t)[2] == zero


def test_gradient_vanishes_iff_all_commutators_vanish():
    rng = random.Random(103)
    zero_count = 0
    for k in range(200):
        n = 2 if k % 2 == 0 else 3
        if k % 3 == 0:
            t = _commuting_triple(rng, n)
        else:
            t = MatrixTriple.of(*(_random_matrix(rng, n) for _ in range(3)))
        zero = tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n))
        commuting = all(
            commutator(x, y) == zero
            for x, y in ((t.a, t.b), (t.b, t.c), (t.c, t.a))
        )
        assert gradient_vanishes(t) == commuting
        zero_count += commuting
    assert zero_count > 30  # both branches genuinely exercised


def test_cyclic_trace_identities():
    rng = random.Random(107)
    from arithdt.potential import _matmul, _trace

    for _ in range(40):
        n = rng.choice((2, 3))
        t = MatrixTriple.of(*(_random_matrix(rng, n) for _ in range(3)))
        value = trace_potential(t)
        assert value == _trace(_matmul(commutator(t.b, t.c), t.a))
        assert value == _trace(_matmul(commutator(t.c, t.a), t.b))


def test_matrix_triple_validation():
    from arithdt.errors import ArithdtError

    with pytest.raises(ArithdtError):
        MatrixTriple.of([[1, 0]], [[1]], [[1]])
    with pytest.raises(ArithdtError):
        MatrixTriple.of([[1]], [[1]], [[1]], v=[1, 2])
