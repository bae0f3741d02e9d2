import math
import sys

import numpy as np
import pytest

from neelwall import (
    TailTooLargeError,
    apply_quadrature,
    apply_spectral,
    make_grid,
    make_initial_profile,
    make_operator,
    make_params,
    minimize,
    pairing,
    seminorm_double_integral,
    spectrum,
    uniqueness_certificate,
    verify,
)
from neelwall.analysis import _oracle_corpus
from neelwall.halflap import dst, next_fast_len, toeplitz_product
from neelwall.model import trapezoid_weights


@pytest.fixture(scope="module")
def fine():
    grid = make_grid(4097, 80.0)
    return grid, make_operator(grid)


def test_annihilates_constants(fine):
    grid, op = fine
    v = apply_spectral(op, spectrum(op, np.full(grid.n, 3.7)))
    assert np.max(np.abs(v)) < 1e-14


def test_lorentzian_closed_form(fine):
    # harmonic extension of 1/(1+x^2) gives (1-x^2)/(1+x^2)^2 at y=0
    grid, op = fine
    x = grid.nodes
    u = 1.0 / (1.0 + x**2)
    exact = (1.0 - x**2) / (1.0 + x**2) ** 2
    interior = np.abs(x) <= 0.5 * grid.half_width
    err = np.max(np.abs(apply_spectral(op, spectrum(op, u)) - exact)[interior])
    assert err <= 2e-5


def test_quadrature_matches_spectral(fine):
    grid, op = fine
    x = grid.nodes
    interior = np.abs(x) <= 0.5 * grid.half_width
    for u in (1.0 / (1.0 + x**2), np.exp(-0.5 * x**2)):
        v = apply_spectral(op, spectrum(op, u))
        gap = np.abs(apply_quadrature(u, grid) - v)[interior]
        assert np.max(gap) <= 1e-4 * np.max(np.abs(u))


def test_quadrature_is_the_dense_trapezoid_sum():
    # the singular integral taken node by node: the trapezoid sum of
    # (u(x) - u(y))/(x - y)^2 over y != x, -u''(x) dx/2 for the singular
    # point, and the tails of the constant extension beyond the grid
    grid = make_grid(257, 20.0)
    x, dx, L = grid.nodes, grid.spacing, grid.half_width
    w = trapezoid_weights(grid.n, dx)
    for u in (1.0 / (1.0 + x**2), np.sin(2.0 * np.arctan(np.exp(-x)))):
        dense = np.full(grid.n, math.nan)
        for i in range(1, grid.n - 1):
            off = np.arange(grid.n) != i
            s = np.sum(w[off] * (u[i] - u[off]) / (x[i] - x[off]) ** 2)
            s += 0.5 * dx * (2.0 * u[i] - u[i + 1] - u[i - 1]) / dx**2
            s += (u[i] - u[-1]) / (L - x[i]) + (u[i] - u[0]) / (L + x[i])
            dense[i] = s / math.pi
        q = apply_quadrature(u, grid)
        assert np.max(np.abs(q - dense)[1:-1]) <= 1e-13 * np.max(np.abs(dense[1:-1]))


def test_quadrature_rejects_boundary_nodes(fine):
    # the tails diverge at x = +/-L: the end nodes are NaN, and nothing
    # divides by L - x = 0
    grid, _ = fine
    u = np.exp(-0.5 * grid.nodes**2)
    with np.errstate(divide="raise", invalid="raise"):
        q = apply_quadrature(u, grid)
    assert np.isnan(q[[0, -1]]).all() and np.isfinite(q[1:-1]).all()
    with pytest.raises(ValueError):
        apply_quadrature(u[:-1], grid)


def test_pairing_exactly_symmetric(fine, rng):
    grid, op = fine
    su = spectrum(op, np.exp(-0.5 * grid.nodes**2))
    sw = spectrum(op, 1.0 / (1.0 + grid.nodes**2))
    assert pairing(op, su, sw) == pairing(op, sw, su)


def test_pairing_positive(fine):
    grid, op = fine
    su = spectrum(op, np.exp(-0.5 * grid.nodes**2))
    assert pairing(op, su, su) > 0.0


def test_seminorm_identity(fine):
    grid, op = fine
    x = grid.nodes
    for u in (np.exp(-0.5 * x**2), 1.0 / (1.0 + x**2)):
        su = spectrum(op, u)
        qp = pairing(op, su, su)
        qd = seminorm_double_integral(u, grid)
        assert abs(qp - qd) / qd <= 1e-4


def test_tail_guard():
    grid = make_grid(257, 10.0)
    op = make_operator(grid)
    # a function far from flat at the ends violates the decay contract
    with pytest.raises(TailTooLargeError):
        spectrum(op, grid.nodes.copy())


@pytest.mark.parametrize("end, value", [(0, np.nan), (-1, np.nan), (0, np.inf), (-1, np.inf), (-1, -np.inf)])
def test_tail_guard_rejects_a_non_finite_end(end, value):
    # a nan tail fails every comparison, and an infinite end makes inf - inf
    # of the end-mean subtraction: both must read as a tail too large
    grid = make_grid(257, 10.0)
    u = np.exp(-0.5 * grid.nodes**2)
    u[end] = value
    with pytest.raises(TailTooLargeError, match="at the grid ends is"):
        spectrum(make_operator(grid), u)


def _seminorm_block_sum(u, grid, block_rows=256):
    """The seminorm oracle's double trapezoid sum taken entry by entry over
    the n x n integrand, in row blocks: the reference for the Toeplitz
    evaluation."""
    n, dx, L = grid.n, grid.spacing, grid.half_width
    x = grid.nodes
    v = u - 0.5 * (u[0] + u[-1])
    du2 = np.gradient(v, dx) ** 2
    wt = np.full(n, dx)
    wt[0] = wt[-1] = 0.5 * dx
    col_sums = np.zeros(n)
    for start in range(0, n, block_rows):
        rows = np.arange(start, min(start + block_rows, n))
        with np.errstate(divide="ignore", invalid="ignore"):
            block = ((v[rows, None] - v[None, :]) / (x[rows, None] - x[None, :])) ** 2
        block[rows - start, rows] = du2[rows]
        col_sums += wt[rows] @ block
    tail_density = v**2 * (1.0 / (L - x + 0.5 * dx) + 1.0 / (L + x + 0.5 * dx))
    return (float(col_sums @ wt) + 2.0 * float(np.dot(wt, tail_density))) / (2.0 * math.pi)


@pytest.mark.parametrize("n", [257, 1025, 4097])
def test_seminorm_matches_block_sum(n, solved):
    grid = make_grid(n, 40.0)
    wall, _ = solved(1.0, 0.25, n=n)
    cases = _oracle_corpus(grid) + [("wall", np.sin(wall.theta) - 0.25)]
    for name, u in cases:
        ref = _seminorm_block_sum(u, grid)
        assert abs(seminorm_double_integral(u, grid) - ref) <= 1e-11 * ref, name


@pytest.mark.parametrize("n", [4097, 8193])
def test_seminorm_gap_is_the_periodic_image_bias(n):
    # pairing is the seminorm of the periodized input on the padded lattice
    # of length P; the images shift it by -pi (int v)^2 / (3 P^2). What is
    # left is the oracle's own O(dx) quadrature error.
    grid = make_grid(n, 40.0)
    op = make_operator(grid)
    period = op.padded_len * grid.spacing
    for name, u in _oracle_corpus(grid):
        v = u - 0.5 * (u[0] + u[-1])
        bias = -math.pi * float(np.dot(trapezoid_weights(n, grid.spacing), v)) ** 2 / (3 * period**2)
        qd = seminorm_double_integral(u, grid)
        su = spectrum(op, u)
        assert abs(pairing(op, su, su) - bias - qd) / qd <= 1.5e-5, name


def _wavenumbers(op):
    """|k| on the real-FFT half of the padded lattice."""
    return 2.0 * math.pi * np.fft.rfftfreq(op.padded_len, op.grid.spacing)


def _padded_spectrum(op, u):
    """Real-FFT spectrum of the end-mean-free samples in the middle of the
    zero-padded window of padded_len points."""
    offset = (op.padded_len - op.grid.n) // 2
    window = np.zeros(op.padded_len)
    window[offset : offset + op.grid.n] = u - 0.5 * (u[0] + u[-1])
    return offset, np.fft.rfft(window)


def _padded_apply(op, u):
    """apply_spectral on the zero-padded lattice itself: |k| times the
    padded window's spectrum, cropped back to the grid."""
    offset, su = _padded_spectrum(op, u)
    return np.fft.irfft(su * _wavenumbers(op), op.padded_len)[offset : offset + op.grid.n]


def _padded_pairing(op, u):
    """pairing(u, u) as the Parseval sum over the zero-padded lattice."""
    _, su = _padded_spectrum(op, u)
    terms = _wavenumbers(op) * np.abs(su) ** 2
    total = terms[0] + 2.0 * np.sum(terms[1:-1])
    total += terms[-1] if op.padded_len % 2 == 0 else 2.0 * terms[-1]
    return float(total) * op.grid.spacing / op.padded_len


@pytest.mark.parametrize("n, embed_len", [(257, 512), (1025, 2048), (4097, 8192), (8193, 16384)])
def test_embedding_applies_the_padded_lattice_operator(n, embed_len, operators, solved):
    # the symmetric circulant embedding at next_fast_len(2n - 2) is the
    # padded lattice's own Toeplitz matrix, so both routes agree to rounding
    grid, op = operators(n)
    assert op.embed_len == next_fast_len(2 * n - 2) == embed_len
    wall, _ = solved(1.0, 0.25, n=n)
    cases = _oracle_corpus(grid) + [("wall", np.sin(wall.theta) - 0.25)]
    for name, u in cases:
        su = spectrum(op, u)
        ref = _padded_apply(op, u)
        assert np.max(np.abs(apply_spectral(op, su) - ref)) <= 1e-12 * np.max(np.abs(ref)), name
        q = _padded_pairing(op, u)
        assert abs(pairing(op, su, su) - q) <= 1e-12 * q, name


@pytest.mark.parametrize("n, embed_len", [(23, 45), (25, 48), (113, 225), (129, 256)])
def test_pairing_is_the_dense_toeplitz_form_at_odd_and_even_lengths(n, embed_len):
    # the folded Parseval weights count bin M/2 once only when M is even
    grid = make_grid(n, 10.0)
    op = make_operator(grid)
    assert op.embed_len == embed_len
    x = grid.nodes
    u, w = np.exp(-(x**2)), 1.0 / (1.0 + x**2)
    v, z = u - 0.5 * (u[0] + u[-1]), w - 0.5 * (w[0] + w[-1])
    column = np.fft.irfft(_wavenumbers(op), op.padded_len)[:n]
    dense = column[np.abs(np.subtract.outer(np.arange(n), np.arange(n)))]
    q = grid.spacing * float(v @ dense @ z)
    su = spectrum(op, u)
    assert abs(pairing(op, su, spectrum(op, w)) - q) <= 1e-13 * abs(q)
    assert np.max(np.abs(apply_spectral(op, su) - dense @ v)) <= 1e-13 * np.max(np.abs(dense @ v))
    # the convexity lemma's hypothesis: the kernel is positive definite on
    # the grid (smallest eigenvalue 0.106 to 0.112 at these n)
    assert np.linalg.eigvalsh(dense).min() > 0.0


def test_only_halflap_calls_the_fft(solved, monkeypatch):
    # every transform, verify's and the certificate's included, is made in halflap
    callers = set()
    for name in ("rfft", "irfft"):

        def traced(*args, _fft=getattr(np.fft, name), **kwargs):
            callers.add(sys._getframe(1).f_globals["__name__"])
            return _fft(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, traced)
    params = make_params(1.0, 0.25)
    p, report = minimize(make_initial_profile(make_grid(513, 40.0), params))
    assert report.converged
    assert "far_field" in verify(p)["checks"]
    uniqueness_certificate(p, solved(1.0, 0.25, kind="perturbed")[0])
    assert callers == {"neelwall.halflap"}


@pytest.mark.parametrize("n, half_width", [(257, 20.0), (4097, 40.0)])
def test_a_stacked_call_gives_each_row_what_it_gives_alone(n, half_width):
    # the oracle passes its corpus as one stack to each real-space route
    grid = make_grid(n, half_width)
    corpus = np.stack([u for _, u in _oracle_corpus(grid)])
    for stack in (corpus, np.stack((corpus, corpus[::-1]))):
        quadratures = apply_quadrature(stack, grid)
        seminorms = seminorm_double_integral(stack, grid)
        assert quadratures.shape == stack.shape and seminorms.shape == stack.shape[:-1]
        for index in np.ndindex(stack.shape[:-1]):
            alone = apply_quadrature(stack[index], grid)
            assert np.array_equal(quadratures[index], alone, equal_nan=True)
            assert np.array_equal(seminorms[index], seminorm_double_integral(stack[index], grid))
    assert isinstance(seminorm_double_integral(corpus[0], grid), float)


@pytest.mark.parametrize("m", [1, 2, 7, 255])
def test_dst_is_the_orthonormal_sine_matrix_and_its_own_inverse(m, rng):
    j = np.arange(1, m + 1)
    sine = math.sqrt(2.0 / (m + 1)) * np.sin(np.outer(j, j) * math.pi / (m + 1))
    x = rng.standard_normal((3, m))
    y = dst(x)
    assert np.max(np.abs(y - x @ sine)) <= 1e-13 * np.max(np.abs(y))
    assert np.max(np.abs(dst(y) - x)) <= 1e-13 * np.max(np.abs(x))


def test_next_fast_len_is_the_next_5_smooth_length():
    smooth = sorted(
        k for k in (2**a * 3**b * 5**c for a in range(15) for b in range(10) for c in range(7)) if k <= 10**4
    )
    nxt = 0
    for target in range(0, 10**4 + 1):
        while smooth[nxt] < target:
            nxt += 1
        assert next_fast_len(target) == smooth[nxt], target
    # padded lengths of the 4n lattice at n = 257 ... 8193, and the
    # embedding lengths 2n - 2 at n = 257, 1025, 2049, 4097, 8193
    pinned = {1028: 1080, 4100: 4320, 8196: 8640, 16388: 16875, 32772: 32805}
    pinned.update({512: 512, 2048: 2048, 4096: 4096, 8192: 8192, 16384: 16384})
    assert {t: next_fast_len(t) for t in pinned} == pinned


@pytest.mark.parametrize("n", [1, 2, 9, 300])
def test_toeplitz_product_matches_the_dense_product(n, rng):
    column = rng.standard_normal(n)
    dense = column[np.abs(np.subtract.outer(np.arange(n), np.arange(n)))]
    x = rng.standard_normal((2, n))
    assert np.max(np.abs(toeplitz_product(column, x) - x @ dense)) <= 1e-12 * np.max(np.abs(x @ dense))
    assert np.allclose(toeplitz_product(column, x[0]), dense @ x[0], rtol=0, atol=1e-12 * n)
