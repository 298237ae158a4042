import numpy as np
import pytest

from hierpoll.errors import (
    DegenerateDegreeZero,
    NegativeEntry,
    NonFiniteEntry,
    NonzeroRemainder,
    NotSquare,
    NotUltrametric,
    RowSumMismatch,
)
from hierpoll.presets import intent_weight_audit, intent_weight_polynomial
from hierpoll.stochastic import (
    ConvexPolynomial,
    deflate_chain,
    eval_matrix_polynomial,
    fractional_power,
    is_hurwitz,
    is_ultrametric,
    matrix_power,
    polynomial_quotient,
    validate_stochastic,
)

from conftest import random_stochastic, random_ultrametric


class TestValidateStochastic:
    def test_identity_accepted(self):
        m = validate_stochastic(np.eye(3))
        assert m.rows == m.cols == 3

    def test_published_transition_matrix_accepted(self, P3):
        m = validate_stochastic(P3)
        assert np.allclose(m.entries.sum(axis=1), 1.0)

    def test_row_sum_mismatch(self):
        with pytest.raises(RowSumMismatch, match="row 0"):
            validate_stochastic([[0.5, 0.6]])

    def test_negative_entry(self):
        with pytest.raises(NegativeEntry):
            validate_stochastic([[1.2, -0.2]])

    def test_no_silent_normalization(self):
        with pytest.raises(RowSumMismatch):
            validate_stochastic([[0.2, 0.2], [0.5, 0.5]])


class TestIsUltrametric:
    def test_identity(self):
        assert is_ultrametric(np.eye(4))

    def test_published_observation_matrix(self, O1):
        assert is_ultrametric(O1)

    def test_asymmetric_rejected(self, P3):
        assert not is_ultrametric(P3)

    def test_not_square(self):
        with pytest.raises(NotSquare):
            is_ultrametric(np.full((2, 3), 1.0 / 3))

    def test_weak_diagonal_rejected(self):
        # symmetric, min-condition fine, but diagonal only ties the off-diagonal
        assert not is_ultrametric(np.full((2, 2), 0.5))

    def test_generated_instances(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 9))
            assert is_ultrametric(random_ultrametric(n, rng))

    @pytest.mark.parametrize("Q, expected", [
        ([[1.0]], True),
        ([[0.0]], False),
        ([[5e-10]], False),            # a 1x1 entry must exceed the tolerance
        ([[0.5, -0.1], [-0.1, 0.5]], True),
        ([[0.0, -0.1], [-0.1, 0.0]], False),  # off-diagonal maxima count as 0
    ])
    def test_diagonal_must_exceed_tolerance(self, Q, expected):
        assert is_ultrametric(np.array(Q)) is expected


class TestMatrixPower:
    def test_zero_power_is_identity(self, O1):
        assert np.array_equal(matrix_power(O1, 0).entries, np.eye(3))

    def test_published_square(self, O1, O2):
        assert np.abs(matrix_power(O1, 2).entries - O2).max() < 5e-4

    def test_identity_power(self):
        assert np.array_equal(matrix_power(np.eye(3), 7).entries, np.eye(3))

    def test_additivity(self, rng):
        for _ in range(10):
            Q = random_stochastic(4, 4, rng)
            a, b = int(rng.integers(0, 5)), int(rng.integers(0, 5))
            lhs = matrix_power(Q, a + b).entries
            rhs = matrix_power(Q, a).entries @ matrix_power(Q, b).entries
            assert np.abs(lhs - rhs).max() < 1e-10


class TestFractionalPower:
    def test_identity_root(self):
        assert np.abs(fractional_power(np.eye(4), 1, 5).entries - np.eye(4)).max() < 1e-12

    def test_published_square_root(self, O1, O2):
        assert np.abs(fractional_power(O2, 1, 2).entries - O1).max() < 5e-4

    def test_exponent_one_is_identity_map(self, rng):
        Q = random_ultrametric(5, rng)
        assert np.abs(fractional_power(Q, 2, 2).entries - Q).max() < 1e-10

    def test_rejects_non_ultrametric(self, P3):
        with pytest.raises(NotUltrametric):
            fractional_power(P3, 1, 2)

    def test_root_recovers_power(self, rng):
        # (Q^(j/K))^K = Q^j entrywise
        for _ in range(15):
            n = int(rng.integers(2, 9))
            Q = random_ultrametric(n, rng)
            j, K = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            root = fractional_power(Q, j, K).entries
            assert np.abs(np.linalg.matrix_power(root, K)
                          - np.linalg.matrix_power(Q, j)).max() < 1e-8

    def test_ultrametric_eigenvalues_positive(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            Q = random_ultrametric(n, rng)
            lam = np.linalg.eigvalsh(Q)
            assert lam.min() > 0
            assert np.abs(lam.imag).max() == 0 if np.iscomplexobj(lam) else True


class TestMatrixPolynomial:
    def test_constant_gives_identity(self, O1):
        f = ConvexPolynomial([1.0])
        assert np.array_equal(eval_matrix_polynomial(f, O1).entries, np.eye(3))

    def test_linear_gives_base(self, O1):
        f = ConvexPolynomial([0.0, 1.0])
        assert np.abs(eval_matrix_polynomial(f, O1).entries - O1).max() < 1e-15

    def test_published_weights_row_sums(self, O1):
        # independent oracle: sum the powers directly
        f = intent_weight_polynomial()
        got = eval_matrix_polynomial(f, O1).entries
        acc = np.zeros((3, 3))
        for l, beta in enumerate(f.coefficients):
            acc += beta * np.linalg.matrix_power(O1, l)
        assert np.abs(got - acc).max() < 1e-12
        assert np.abs(got.sum(axis=1) - 1.0).max() < 1e-10

    def test_random_convex_combination_is_stochastic(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 6))
            deg = int(rng.integers(1, 6))
            coeffs = rng.dirichlet(np.ones(deg + 1))
            B = random_stochastic(n, n, rng)
            validate_stochastic(eval_matrix_polynomial(ConvexPolynomial(coeffs), B).entries)


class TestConvexPolynomial:
    @pytest.mark.parametrize("coeffs, error", [
        ([np.nan, 1.0], NonFiniteEntry),
        ([np.inf, 0.0], NonFiniteEntry),
        ([1.2, -0.2], NegativeEntry),
        ([0.5, 0.6], RowSumMismatch),
        ([], RowSumMismatch),
        ([[0.5, 0.5]], RowSumMismatch),
    ], ids=["nan", "inf", "negative", "sum", "empty", "2-d"])
    def test_coefficients_checked_as_a_stochastic_row(self, coeffs, error):
        with pytest.raises(error):
            ConvexPolynomial(coeffs)

    def test_constant_and_read_only(self):
        f = ConvexPolynomial(1.0)
        assert f.coefficients.tolist() == [1.0] and not f.coefficients.flags.writeable


class TestHurwitz:
    def test_single_negative_root(self):
        assert is_hurwitz(ConvexPolynomial([1 / 3, 2 / 3]))

    def test_imaginary_axis_roots(self):
        assert not is_hurwitz(ConvexPolynomial([0.5, 0.0, 0.5]))

    def test_root_at_origin(self):
        assert not is_hurwitz(ConvexPolynomial([0.0, 1.0]))

    def test_degree_zero_raises(self):
        with pytest.raises(DegenerateDegreeZero):
            is_hurwitz(ConvexPolynomial([1.0]))


class TestPolynomialQuotient:
    def test_perfect_square(self):
        g = ConvexPolynomial([1 / 3, 2 / 3])
        p = ConvexPolynomial(np.convolve(g.coefficients, g.coefficients))
        h = polynomial_quotient(p, g)
        assert np.abs(h.coefficients - g.coefficients).max() < 1e-12

    def test_published_weights_division(self):
        # oracle: find the smallest-magnitude root, divide synthetically
        f = intent_weight_polynomial()
        roots = sorted(np.roots(f.coefficients[::-1]), key=abs)
        r = roots[0]
        assert abs(r.imag) < 1e-9
        factor = ConvexPolynomial(np.array([-r.real, 1.0]) / (1.0 - r.real))
        h = polynomial_quotient(f, factor)
        assert h.degree == f.degree - 1
        recon = np.convolve(h.coefficients, factor.coefficients)
        assert np.abs(recon - f.coefficients).max() < 1e-8

    def test_nonzero_remainder(self):
        p = ConvexPolynomial([0.5, 0.0, 0.5])
        q = ConvexPolynomial([0.5, 0.5])
        with pytest.raises(NonzeroRemainder):
            polynomial_quotient(p, q)

    def test_reconstruction_property(self, rng):
        for _ in range(10):
            dq = int(rng.integers(1, 4))
            dh = int(rng.integers(1, 4))
            q = ConvexPolynomial(rng.dirichlet(np.ones(dq + 1)))
            h = ConvexPolynomial(rng.dirichlet(np.ones(dh + 1)))
            p = ConvexPolynomial(np.convolve(q.coefficients, h.coefficients))
            got = polynomial_quotient(p, q)
            recon = np.convolve(got.coefficients, q.coefficients)
            assert np.abs(recon - p.coefficients).max() < 1e-8


class TestDeflateChain:
    def test_repeated_root(self):
        g = np.array([1 / 3, 2 / 3])
        cube = ConvexPolynomial(np.convolve(np.convolve(g, g), g))
        chain = deflate_chain(cube, steps=2)
        assert [c.degree for c in chain] == [3, 2, 1]
        # a triple root is only resolvable to ~eps^(1/3) by any root finder
        assert np.abs(chain[-1].coefficients - g).max() < 1e-5

    def test_published_weights_chain(self):
        chain = deflate_chain(intent_weight_polynomial(), steps=4)
        assert len(chain) == 5
        for c in chain:
            assert is_hurwitz(c)
            assert c.coefficients.min() >= 0
            assert abs(c.coefficients.sum() - 1.0) < 1e-10

    def test_zero_steps(self):
        f = ConvexPolynomial([1 / 3, 2 / 3])
        assert deflate_chain(f, 0) == [f]


class TestWeightAudit:
    def test_printed_fractions_do_not_sum_to_one(self):
        total, deviation, normalized = intent_weight_audit()
        assert total != 1
        assert deviation == pytest.approx(7 / 38880)
        assert abs(normalized.sum() - 1.0) < 1e-15
