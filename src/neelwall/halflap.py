"""Two independent realizations of the half-Laplacian (-d^2/dx^2)^(1/2).

The discrete model is the zero-padded FFT lattice with multiplier |k|: one
lattice per grid, HalfLaplacianOperator, which alone chooses the padded
length P. Between grid nodes |k| applies the symmetric Toeplitz matrix with
column K_P = irfft(|k|, P)[:n], which make_operator builds once. The column
is applied through its symmetric circulant embedding at the fast length
M >= 2n - 2, about P/2 and a power of two on grids of n = 2^k + 1 nodes
(Chan & Ng, SIAM Review 38, 1996). spectrum is the one way in: it rffts an
input at M, and everything else works on its spectra. apply_spectral
multiplies a spectrum by the embedding's real spectrum of K_P and irffts,
and the stray-field form pairing is the Parseval sum of two spectra,
weighted once per operator; a caller that needs both of one input, like
the energy kernel, or combines spectra linearly, like the path scan,
transforms each input once.
The cross-check is the principal-value singular integral at every interior
node: a trapezoid sum of (u(x)-u(y))/(x-y)^2 over the grid, whose removable
singularity at y = x enters as a symmetrized second difference, and tails
closed in form beyond the grid using the constant extension of the input.
The H^(1/2) seminorm oracle for the pairing is a double-trapezoid sum of the
same real-space kernel 1/(x-y)^2. Both are Toeplitz products, O(n log n),
and neither uses the padded lattice or |k|.

The module is also the package's one caller of numpy's FFT for the other
transforms it needs: the orthonormal DST-I of the solver's preconditioner
(dst), the symmetric Toeplitz product of the quadrature and the seminorm
oracle (toeplitz_product) and the choice of fast transform lengths
(next_fast_len).

Inputs must decay at the grid ends: pass u = sin(theta) - h, never theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TailTooLargeError
from .model import Grid, trapezoid_weights

__all__ = [
    "HalfLaplacianOperator",
    "make_operator",
    "apply_spectral",
    "apply_quadrature",
    "spectrum",
    "pairing",
    "seminorm_double_integral",
    "next_fast_len",
    "dst",
    "toeplitz_product",
]

# The padded lattice is at least this many times longer than the grid, which
# keeps the periodic images of the c/x^2 wall tails out of the window.
PAD_FACTOR = 4
TAIL_TOL = 1e-2


@dataclass(frozen=True)
class HalfLaplacianOperator:
    """The zero-padded FFT lattice of one grid and its Toeplitz kernel.

    The lattice has padded_len points. kernel is the real spectrum of the
    circulant embedding, of length embed_len, of K_P, the first n entries
    of the lattice's inverse transform of |k|. weights is kernel
    dx/embed_len with the interior real-FFT bins doubled (each stands for
    itself and its conjugate), the Parseval weights of pairing.
    """

    grid: Grid
    padded_len: int
    embed_len: int
    kernel: np.ndarray
    weights: np.ndarray


def next_fast_len(target: int) -> int:
    """The smallest 5-smooth integer 2^a 3^b 5^c >= target, a length that
    numpy's (pocketfft) real FFT factors into its fastest radices."""
    if target <= 1:
        return 1
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            quotient = -(-target // p35)
            best = min(best, p35 << (quotient - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def dst(x: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I along the last axis,
    y_k = sqrt(2/(m+1)) sum_j x_j sin(pi (j+1)(k+1)/(m+1)), its own inverse.

    The sine sums are minus the imaginary part of one rfft of (0, x),
    zero-padded to length 2(m+1).
    """
    m = x.shape[-1]
    buf = np.zeros(x.shape[:-1] + (2 * (m + 1),))
    buf[..., 1 : m + 1] = x
    return np.fft.rfft(buf)[..., 1 : m + 1].imag * -math.sqrt(2.0 / (m + 1))


def _circulant_spectrum(column: np.ndarray) -> tuple[int, np.ndarray]:
    """The fast length size >= 2n - 2 and the real spectrum of the symmetric
    circulant of that length with first column (column, zeros, reversed
    column[1:]); at size = 2n - 2 it is (K_0 ... K_{n-1}, K_{n-2} ... K_1),
    entry n - 1 serving both wraps. Its top-left n x n block is the Toeplitz
    matrix T_ij = column[|i - j|]."""
    n = len(column)
    size = next_fast_len(2 * n - 2)
    circulant = np.zeros(size)
    circulant[:n] = column
    circulant[size - n + 1 :] = column[:0:-1]
    return size, np.fft.rfft(circulant).real


def toeplitz_product(column: np.ndarray, x: np.ndarray) -> np.ndarray:
    """T x along the last axis of x, for the symmetric Toeplitz matrix
    T_ij = column[|i - j|], by embedding T in a symmetric circulant of fast
    length >= 2n - 2: O(n log n)."""
    size, spec = _circulant_spectrum(column)
    return np.fft.irfft(spec * np.fft.rfft(x, size), size)[..., : len(column)]


def make_operator(grid: Grid) -> HalfLaplacianOperator:
    """Build the padded lattice for a grid, with transform length the
    smallest fast real-FFT size >= 4n, and the circulant embedding of its
    kernel between grid nodes."""
    padded_len = next_fast_len(PAD_FACTOR * grid.n)
    k = 2.0 * math.pi * np.fft.rfftfreq(padded_len, grid.spacing)
    # restricted to the grid nodes, the padded_len-periodic circulant of |k|
    # is the Toeplitz matrix T_ij = column[|i - j|]
    column = np.fft.irfft(k, padded_len)[: grid.n]
    embed_len, kernel = _circulant_spectrum(column)
    weights = kernel * (grid.spacing / embed_len)
    weights[1 : (embed_len + 1) // 2] *= 2.0
    return HalfLaplacianOperator(
        grid=grid,
        padded_len=padded_len,
        embed_len=embed_len,
        kernel=kernel,
        weights=weights,
    )


def spectrum(op: HalfLaplacianOperator, u: np.ndarray) -> np.ndarray:
    """Real-FFT spectrum of u zero-extended to the embedding length.

    The mean of the two end values is subtracted before padding so that
    additive constants are annihilated exactly and edge leakage does not
    contaminate the low modes. Raises TailTooLargeError when u does not
    decay at the grid ends.
    """
    u = np.asarray(u, dtype=float)
    v = u - 0.5 * (u[0] + u[-1])
    tail = max(abs(v[0]), abs(v[-1]))
    if tail > TAIL_TOL:
        raise TailTooLargeError(
            f"|input| at the grid ends is {tail:.3g} > {TAIL_TOL:.3g}; "
            "nonlocal operators expect u = sin(theta) - h"
        )
    return np.fft.rfft(v, op.embed_len)


def apply_spectral(op: HalfLaplacianOperator, su: np.ndarray) -> np.ndarray:
    """Half-Laplacian on the padded lattice of the input whose spectrum is
    su: its Toeplitz kernel applied through the circulant embedding, one
    irfft at embed_len. su is not overwritten."""
    return np.fft.irfft(su * op.kernel, op.embed_len)[: op.grid.n]


def _inverse_square_column(grid: Grid) -> np.ndarray:
    """Column of the Toeplitz matrix K_ij = 1/((i-j)dx)^2, zero diagonal."""
    column = np.zeros(grid.n)
    column[1:] = 1.0 / (np.arange(1, grid.n) * grid.spacing) ** 2
    return column


def apply_quadrature(u: np.ndarray, grid: Grid) -> np.ndarray:
    """Principal-value singular-integral half-Laplacian at every node.

    (1/pi) p.v. int (u(x)-u(y))/(x-y)^2 dy by the trapezoid rule in y over
    the grid, with closed-form tails beyond it using the constant extension
    of u. The singular point y = x enters through the symmetrized form
    (2u(x) - u(x+s) - u(x-s))/s^2 -> -u''(x) of the inner part, weighted
    dx/2 at s = 0. With the trapezoid weights w and the Toeplitz matrix
    K_ij = 1/((i-j)dx)^2, the sum off the diagonal is u (K w) - K(w u), one
    toeplitz_product call. The two end nodes, where the tails diverge, are
    NaN.
    """
    u = np.asarray(u, dtype=float)
    n, dx, L = grid.n, grid.spacing, grid.half_width
    if u.shape != (n,):
        raise ValueError("sample length does not match grid")
    w = trapezoid_weights(n, dx)
    k_w, k_wu = toeplitz_product(_inverse_square_column(grid), np.stack((w, w * u)))[:, 1:-1]
    ui, x = u[1:-1], grid.nodes[1:-1]
    at_zero = (2.0 * ui - u[2:] - u[:-2]) / (2.0 * dx)
    tails = (ui - u[-1]) / (L - x) + (ui - u[0]) / (L + x)
    q = np.full(n, math.nan)
    q[1:-1] = (ui * k_w - k_wu + at_zero + tails) / math.pi
    return q


def pairing(op: HalfLaplacianOperator, su: np.ndarray, sw: np.ndarray) -> float:
    """Bilinear stray-field form int u (-d^2/dx^2)^(1/2) w dx of the inputs
    whose spectra are su and sw: dx/M sum kernel Re(su conj(sw)) over the
    embedding's full lattice of M = embed_len points, taken on its real-FFT
    half as weights.(Re su Re sw) + weights.(Im su Im sw), which is exactly
    symmetric in su and sw. It equals dx v.(T z) for the padded lattice's
    Toeplitz matrix T and the end-mean-free samples v, z behind su, sw."""
    return float(op.weights @ (su.real * sw.real) + op.weights @ (su.imag * sw.imag))


def seminorm_double_integral(u: np.ndarray, grid: Grid) -> float:
    """Independent H^(1/2) seminorm oracle.

    (1/2pi) iint (u(x)-u(y))^2 / (x-y)^2 dx dy by double trapezoid
    quadrature in real space: kernel 1/(x-y)^2 off the diagonal, u'(x)^2 on
    it, and the same zero extension of v = u - end_mean beyond the grid as
    the spectral route (closed-form single-tail terms shifted by dx/2; the
    corner terms vanish for the zero extension). With weights w and the
    symmetric Toeplitz matrix K_ij = 1/((i-j)dx)^2 (zero diagonal), the
    off-diagonal part of the sum is 2 w.(v^2 Kw) - 2 (wv).(K(wv)); both
    Toeplitz products come from one toeplitz_product call, O(n log n). The
    padded lattice and its |k| are not used.
    """
    u = np.asarray(u, dtype=float)
    n, dx, L = grid.n, grid.spacing, grid.half_width
    x = grid.nodes
    v = u - 0.5 * (u[0] + u[-1])
    wt = trapezoid_weights(n, dx)
    # diagonal: limit is u'(x)^2
    diagonal = float(np.dot(wt * wt, np.gradient(v, dx) ** 2))
    wv = wt * v
    k_w, k_wv = toeplitz_product(_inverse_square_column(grid), np.stack((wt, wv)))
    off_diagonal = 2.0 * float(np.dot(wv * v, k_w)) - 2.0 * float(np.dot(wv, k_wv))
    core = diagonal + off_diagonal
    # tails: for each x in the window, int over |y| > L of v(x)^2/(x-y)^2 dy
    tail_density = v**2 * (1.0 / (L - x + 0.5 * dx) + 1.0 / (L + x + 0.5 * dx))
    # shift ends by dx/2 to avoid the double-counted corner at x = +/-L
    tails = float(np.dot(wt, tail_density))
    return (core + 2.0 * tails) / (2.0 * math.pi)
