import ast
import cmath
import math
import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import kaonbraid
from kaonbraid.linalg import (
    cexp,
    elementwise,
    expm1,
    frobenius,
    hermiticity_residual,
    norm,
    tensor_product,
    unitarity_residual,
)

RNG = np.random.default_rng(42)
PACKAGE = Path(kaonbraid.__file__).parent


def random_complex(dim):
    return RNG.normal(size=(dim, dim)) + 1j * RNG.normal(size=(dim, dim))


class TestTensorProduct:
    def test_identity(self):
        assert np.array_equal(tensor_product(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal(self):
        d = np.diag([1.0, -1.0])
        expected = np.diag([1.0, -1.0, -1.0, 1.0])
        assert np.array_equal(tensor_product(d, d), expected)

    def test_mixed_product_property(self):
        for _ in range(20):
            a, b, c, d = (random_complex(2) for _ in range(4))
            lhs = tensor_product(a, b) @ tensor_product(c, d)
            rhs = tensor_product(a @ c, b @ d)
            assert np.linalg.norm(lhs - rhs) < 1e-12

    def test_acts_on_product_vectors(self):
        for _ in range(10):
            a, b = random_complex(2), random_complex(2)
            u = RNG.normal(size=2) + 1j * RNG.normal(size=2)
            v = RNG.normal(size=2) + 1j * RNG.normal(size=2)
            lhs = tensor_product(a, b) @ np.kron(u, v)
            rhs = np.kron(a @ u, b @ v)
            assert np.linalg.norm(lhs - rhs) < 1e-12

    def test_bilinear(self):
        a, b, c = random_complex(2), random_complex(2), random_complex(2)
        lhs = tensor_product(a + 2.0 * b, c)
        rhs = tensor_product(a, c) + 2.0 * tensor_product(b, c)
        assert np.linalg.norm(lhs - rhs) < 1e-12


class TestPredicates:
    def test_identity_unitary(self):
        assert unitarity_residual(np.eye(4)) == 0.0

    def test_scaled_identity_not_unitary(self):
        assert unitarity_residual(2.0 * np.eye(4)) == pytest.approx(6.0)  # ||4I - I||_F = 3 * 2

    def test_identity_hermitian(self):
        assert hermiticity_residual(np.eye(4)) == 0.0

    def test_anti_hermitian_not_hermitian(self):
        assert hermiticity_residual(1j * np.eye(4)) == pytest.approx(4.0)  # ||2i I||_F


class TestElementwise:
    def test_real_input_stays_float(self):
        for a in (2, [0, 1], np.arange(3)):
            out = elementwise(math.exp, a)
            assert out.dtype == float and out.shape == np.shape(a)


def bits(a):
    """The 64-bit patterns of a's parts, zero signs and NaN payloads included."""
    return np.atleast_1d(np.asarray(a)).view(np.uint64).tolist()


# cexp's domain: re <= 0, -inf included, and every finite im, with the
# signed zeros, subnormals and huge magnitudes drawn often
RE = (st.sampled_from([-math.inf, -0.0, 0.0, -5e-324, -(2.0 ** -1022), -745.2, -708.4, -1e308])
      | st.floats(-1e308, 0.0))
IM = (st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022, math.pi, 1e300, -1e300])
      | st.floats(allow_nan=False, allow_infinity=False))


class TestCexp:
    """cexp(re, im) is cmath.exp(complex(re, im)) per element, bit for bit, for
    re <= 0; so its parts are math.exp, math.cos and math.sin."""

    @settings(deadline=None)
    @given(st.lists(st.tuples(RE, IM), min_size=1, max_size=50))
    @example([(-math.inf, -0.0), (-math.inf, 1.0), (-math.inf, -2.0), (-0.0, -0.0), (0.0, -0.0),
              (-1e6, 1e300), (-1e308, -1e300), (-5e-324, 5e-324), (-745.2, -3.0)])
    def test_is_cmath_exp(self, points):
        re, im = (np.array(part) for part in zip(*points))
        expected = [cmath.exp(complex(x, y)) for x, y in points]
        assert bits(cexp(re, im)) == bits(np.array(expected))

    def test_numbers_give_a_0d_array(self):
        z = cexp(-1.5, -0.0)
        assert z.shape == () and z.dtype == complex
        assert bits(z) == bits(cmath.exp(complex(-1.5, -0.0)))

    @settings(deadline=None)
    @given(st.lists(RE, min_size=1, max_size=50))
    # the last three are points where numpy's SIMD float exp is not math.exp
    @example([-math.inf, -0.0, 0.0, -5e-324, -745.2, -745.1, -1e-300,
              -0.15804366653970836, -2.4768151837032377, -642.9063460737776])
    def test_real_axis_is_math_exp(self, x):
        assert bits(cexp(np.array(x), 0.0).real) == bits(np.array([math.exp(v) for v in x]))

    @settings(deadline=None)
    @given(st.lists(IM, min_size=1, max_size=50))
    @example([0.0, -0.0, 5e-324, math.pi / 2, math.pi, 1e22, 1e300, -1.7976931348623157e308])
    def test_imaginary_axis_is_math_cos_and_sin(self, theta):
        rot = cexp(0.0, np.array(theta))
        assert bits(rot.real) == bits(np.array([math.cos(v) for v in theta]))
        assert bits(rot.imag) == bits(np.array([math.sin(v) for v in theta]))

    def test_diverges_above_the_domain(self):
        # CPython rescales by e above log(DBL_MAX/4) ≈ 708.4 and glibc only
        # above 709: between them the last bits may differ
        got, expected = cexp(709.0, 0.5).item(), cmath.exp(complex(709.0, 0.5))
        assert got != expected
        assert abs(got - expected) <= 1e-15 * abs(expected)


class TestExpm1:
    """expm1(x) is math.expm1 per element, bit for bit, for x <= 0."""

    @settings(deadline=None)
    @given(st.lists(RE, min_size=1, max_size=50))
    # the last three are points where numpy's float np.expm1 is not math.expm1
    @example([-math.inf, -0.0, 0.0, -5e-324, -(2.0 ** -1022), -745.2, -1e308, -1e-300,
              -1.5052483042117748, -1.7857187817437192, -0.7319007239096598])
    def test_is_math_expm1(self, x):
        assert bits(expm1(np.array(x))) == bits(np.array([math.expm1(v) for v in x]))

    def test_numbers_give_a_0d_array(self):
        e = expm1(-0.0)
        assert e.shape == () and e.dtype == float
        assert bits(e) == bits(math.expm1(-0.0))


# glibc picks its exp, expm1, sin and cos variants by CPU feature; this tunable
# masks those features in the child alone (glibc 2.36 silently ignores the
# -AVX2_Usable,-FMA_Usable spelling).  On this variant math's bits themselves
# may move, and cexp and expm1 must move with them.
LIBM_VARIANT = "glibc.cpu.hwcaps=-AVX2,-FMA,-AVX512F"
IDENTITY_CHECK = textwrap.dedent("""
    import cmath, math
    import numpy as np
    from kaonbraid.linalg import cexp

    rng = np.random.default_rng(20)
    n = 20000
    re = np.concatenate([-np.exp(rng.uniform(-745.0, 709.0, n)), rng.uniform(-50.0, 0.0, n),
                         [-np.inf, -0.0, 0.0, -5e-324]])
    im = np.concatenate([rng.uniform(-20.0, 20.0, n), rng.uniform(-1e300, 1e300, n),
                         [1.0, -0.0, 5e-324, 0.0]])
    got = cexp(re, im)
    want = np.array([cmath.exp(complex(x, y)) for x, y in zip(re.tolist(), im.tolist())])
    e = np.array([math.exp(x) for x in re.tolist()])
    cos = np.array([math.cos(y) for y in im.tolist()])
    sin = np.array([math.sin(y) for y in im.tolist()])
    rot = cexp(0.0, im)
    for a, b in ((got, want), (cexp(re, 0.0).real, e), (rot.real, cos), (rot.imag, sin)):
        print(int((a.view(np.uint64) != b.view(np.uint64)).sum()))
""")


EXPM1_CHECK = textwrap.dedent("""
    import math
    import numpy as np
    from kaonbraid.linalg import expm1

    rng = np.random.default_rng(21)
    n = 20000
    x = np.concatenate([-np.exp(rng.uniform(-745.0, 709.0, n)), rng.uniform(-50.0, 0.0, n),
                        [-np.inf, -0.0, 0.0, -5e-324]])
    want = np.array([math.expm1(v) for v in x.tolist()])
    print(int((expm1(x).view(np.uint64) != want.view(np.uint64)).sum()))
""")

on_glibc = pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                              reason="needs glibc's hwcaps tunable")


def mismatches_on_libm_variant(script) -> list[str]:
    """The counts `script` prints, run in a child on LIBM_VARIANT."""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "GLIBC_TUNABLES": LIBM_VARIANT})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@on_glibc
def test_cexp_identity_holds_on_another_libm_variant():
    assert mismatches_on_libm_variant(IDENTITY_CHECK) == ["0", "0", "0", "0"]


@on_glibc
def test_expm1_identity_holds_on_another_libm_variant():
    assert mismatches_on_libm_variant(EXPM1_CHECK) == ["0"]


def norm_reference(values):
    """The Euclidean norm of complex values in Python floats, in norm's order:
    the squared parts re₀², im₀², re₁², ..., padded with zeros to a power of
    two, summed in neighbouring pairs level by level."""
    sums = [p * p for z in values for p in (z.real, z.imag)]
    sums += [0.0] * ((1 << (len(sums) - 1).bit_length()) - len(sums))
    while len(sums) > 1:
        sums = [a + b for a, b in zip(sums[0::2], sums[1::2])]
    return math.sqrt(sums[0])


UNIT_COMPLEX = st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))


@settings(deadline=None)
@given(hnp.arrays(complex, st.tuples(st.integers(1, 20), st.just(4)), elements=UNIT_COMPLEX))
def test_norm_rows_are_their_points(psi):
    """For 4 amplitudes the tree is sqrt(((|a₀|² + |a₁|²) + (|a₂|² + |a₃|²)))."""
    stacked = norm(psi)
    assert stacked.shape == (len(psi),)
    for row, n in zip(psi, stacked.tolist()):
        m = [z.real * z.real + z.imag * z.imag for z in row.tolist()]
        assert n == norm(row) == norm_reference(row.tolist())
        assert n == math.sqrt((m[0] + m[1]) + (m[2] + m[3]))
        assert abs(n - np.linalg.norm(row)) <= 4 * np.finfo(float).eps * max(n, 1e-300)


@settings(deadline=None)
@given(data=st.data(), n=st.integers(1, 20))
def test_norm_pads_lengths_that_are_not_a_power_of_two(data, n):
    """3 amplitudes are 6 parts and a 3x3 matrix 18: both are padded with
    zeros, to 8 and 32 parts."""
    psi = data.draw(hnp.arrays(complex, (n, 3), elements=UNIT_COMPLEX))
    m = data.draw(hnp.arrays(complex, (n, 3, 3), elements=UNIT_COMPLEX))
    eps = np.finfo(float).eps
    for stacked, rows, single in ((norm(psi), psi, norm), (frobenius(m), m, frobenius)):
        assert stacked.shape == (n,)
        for row, value in zip(rows, stacked.tolist()):
            assert value == single(row) == norm_reference(row.ravel().tolist())
            assert abs(value - np.linalg.norm(row)) <= 4 * eps * max(value, 1e-300)


@pytest.mark.parametrize("shape", [(0,), (3, 0)])
def test_norm_of_an_empty_axis_is_zero(shape):
    """An empty last axis is one zero part: its norm is 0.0, as np.linalg.norm gives."""
    assert norm(np.zeros(shape, complex)).tolist() == np.zeros(shape[:-1]).tolist()
    assert frobenius(np.zeros((2, 0, 0), complex)).tolist() == [0.0, 0.0]


# numpy functions whose bits are not math's, or whose sums are not in a fixed
# order (the dots and np.linalg.norm sum in the BLAS kernel's order); linalg
# wraps the ones the package needs.  np.linalg.svd and np.linalg.eigvals stay
# allowed: they are the independent oracles of two checks
LINALG_ONLY = {"np.cos", "np.sin", "np.exp", "np.expm1", "np.arctan", "np.einsum",
               "np.dot", "np.vdot", "np.inner", "np.linalg.norm"}


def dotted_name(node) -> str:
    """'np.linalg.norm' for the attribute chain np.linalg.norm, '' for one
    that does not start at a plain name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else ""


def test_only_linalg_calls_numpy_transcendentals():
    """Every exp, cos and sin goes through linalg.cexp, expm1 through
    linalg.expm1, atan through elementwise and every norm through linalg.norm:
    no module but linalg names np.cos, np.sin, np.exp, np.expm1, np.arctan,
    np.einsum, np.dot, np.vdot, np.inner or np.linalg.norm."""
    found = [f"{path.name}:{node.lineno} {dotted_name(node)}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "linalg.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and dotted_name(node) in LINALG_ONLY]
    assert found == []
