"""Physical parameters, computational grid, and wall-profile containers.

The state variable is the in-plane rotation angle theta(x), in radians,
connecting pi - theta_h at x = -inf to theta_h at x = +inf, where
theta_h = arcsin(h). Profiles are sampled on a uniform symmetric grid with
x = 0 a node, so that the pinning theta(0) = pi/2 can be imposed exactly.
Beyond the grid, profiles are extended by their boundary values, which makes
u = sin(theta) - h extend by zero.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .errors import MultipleCrossingsError, NoCrossingError

BUMP_AMPLITUDE = 0.1
BUMP_RADIUS = 5.0

__all__ = [
    "ModelParams",
    "Grid",
    "WallProfile",
    "EnergyBreakdown",
    "make_params",
    "make_grid",
    "trapezoid_weights",
    "make_initial_profile",
    "recenter",
    "save_profile",
    "load_profile",
    "write_text_atomic",
]


@dataclass(frozen=True)
class ModelParams:
    """Dimensionless magnetostatic strength nu, applied field h, and the
    tilted vacuum angle theta_h = arcsin(h)."""

    nu: float
    h: float
    theta_h: float


@dataclass(frozen=True)
class Grid:
    """Uniform node-centered grid on [-L, L] with an odd number of points."""

    n: int
    half_width: float
    spacing: float
    nodes: np.ndarray = field(compare=False, repr=False)

    @property
    def center_index(self) -> int:
        return self.n // 2


@dataclass(frozen=True)
class WallProfile:
    """Sampled angle field theta on a grid, tied to its model parameters."""

    grid: Grid
    theta: np.ndarray
    params: ModelParams

    def with_theta(self, theta: np.ndarray) -> "WallProfile":
        return WallProfile(self.grid, np.asarray(theta, dtype=float), self.params)


@dataclass(frozen=True)
class EnergyBreakdown:
    """Exchange, anisotropy/Zeeman (potential), and stray-field energy parts."""

    exchange: float
    potential: float
    stray: float
    total: float


def make_params(nu: float, h: float) -> ModelParams:
    """Validate (nu, h) and derive theta_h = arcsin(h).

    Two distinct vacua of the energy exist only for |h| < 1; we restrict to
    0 <= h < 1.
    """
    if not (math.isfinite(nu) and nu >= 0):
        raise ValueError(f"nu must be nonnegative and finite (got {nu})")
    if not (0.0 <= h < 1.0):
        raise ValueError(f"h must lie in [0, 1) (got {h})")
    return ModelParams(nu=float(nu), h=float(h), theta_h=math.asin(h))


def make_grid(n: int, half_width: float) -> Grid:
    """Build a uniform symmetric grid; n must be odd so x = 0 is a node."""
    if n < 16:
        raise ValueError(f"grid needs at least 16 points (got {n})")
    if n % 2 == 0:
        raise ValueError(f"grid point count must be odd (got {n})")
    with np.errstate(over="ignore", invalid="ignore"):
        nodes = np.linspace(-half_width, half_width, n)
        # enforce exact symmetry about 0 against linspace roundoff
        nodes = 0.5 * (nodes - nodes[::-1])
        dx = float(nodes[1] - nodes[0])
    # the model takes dx^2 and 1/dx^2; a NaN dx fails every comparison
    if not (dx > 0.0 and 0.0 < dx * dx < math.inf and 1.0 / (dx * dx) < math.inf):
        raise ValueError(f"half_width must give dx, dx^2 and 1/dx^2 positive and finite (got {half_width})")
    nodes[n // 2] = 0.0
    return Grid(n=n, half_width=float(half_width), spacing=dx, nodes=nodes)


def trapezoid_weights(n: int, dx: float) -> np.ndarray:
    """Trapezoid-rule weights of n uniformly spaced nodes."""
    w = np.full(n, dx)
    w[0] = w[-1] = 0.5 * dx
    return w


def _template(x: np.ndarray, params: ModelParams) -> np.ndarray:
    """Smooth monotone ramp matching the constants of eta-type comparison
    profiles: pi - theta_h for x < -1, theta_h for x > 1, pi/2 at 0."""
    th = params.theta_h
    ramp = np.clip(x, -1.0, 1.0)
    frac = 0.5 * (1.0 - np.sin(0.5 * math.pi * ramp))
    return th + (math.pi - 2.0 * th) * frac


def _kink(x: np.ndarray, params: ModelParams, width: float) -> np.ndarray:
    if width <= 0:
        raise ValueError("kink width must be positive")
    th = params.theta_h
    return th + (math.pi - 2.0 * th) * (2.0 / math.pi) * np.arctan(np.exp(-x / width))


def make_initial_profile(
    grid: Grid,
    params: ModelParams,
    kind: str = "template",
    width: float = 1.0,
    seed: int = 0,
) -> WallProfile:
    """Build an admissible starting profile.

    kind:
      * ``template``  -- smooth monotone ramp, constant outside [-1, 1].
      * ``kink``      -- arctan profile of the given width.
      * ``perturbed`` -- kink plus an even bump of radius BUMP_RADIUS and
        size BUMP_AMPLITUDE with seeded random cosine coefficients, clamped
        to [theta_h, pi-theta_h].
    """
    x = grid.nodes
    th = params.theta_h
    if kind == "template":
        theta = _template(x, params)
    elif kind == "kink":
        theta = _kink(x, params, width)
    elif kind == "perturbed":
        theta = _kink(x, params, width)
        rng = np.random.default_rng(seed)
        coeffs = rng.uniform(-1.0, 1.0, size=3)
        r = np.clip(np.abs(x) / BUMP_RADIUS, 0.0, 1.0)
        window = np.cos(0.5 * math.pi * r) ** 2
        bump = np.zeros_like(x)
        for j, c in enumerate(coeffs):
            bump += c * np.cos((j + 1) * math.pi * np.abs(x) / BUMP_RADIUS)
        theta = theta + BUMP_AMPLITUDE * window * bump / max(1.0, np.abs(coeffs).sum())
        theta = np.clip(theta, th, math.pi - th)
    else:
        raise ValueError(f"unknown profile kind {kind!r}")
    theta[0] = math.pi - th
    theta[-1] = th
    return WallProfile(grid=grid, theta=theta, params=params)


def _crossing_locations(x: np.ndarray, z: np.ndarray) -> list[float]:
    """Locations where z changes sign (z = theta - pi/2), in node order.

    A sign change between nodes i and i+1 (z_i z_{i+1} < 0, so a product
    that underflows to 0 is not one) is placed by linear interpolation. A
    run of exact zeros from node i to node j counts as one crossing at
    0.5 (x_i + x_j), a single zero node as a crossing at that node.
    """
    i = np.flatnonzero(z[:-1] * z[1:] < 0.0)
    signs = x[i] + (x[i + 1] - x[i]) * z[i] / (z[i] - z[i + 1])
    edges = np.diff((z == 0.0).astype(np.int8), prepend=0, append=0)
    first, last = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) - 1
    zeros = 0.5 * (x[first] + x[last])
    order = np.argsort(np.concatenate((i, first)), kind="stable")
    return np.concatenate((signs, zeros))[order].tolist()


def recenter(p: WallProfile) -> WallProfile:
    """Translate the profile so theta(0) = pi/2, by linear-interpolation
    resampling with constant extension at the exposed edge. The end values
    theta(-L) and theta(L) are Dirichlet data and keep their input values."""
    x = p.grid.nodes
    z = p.theta - 0.5 * math.pi
    locs = _crossing_locations(x, z)
    if len(locs) == 0:
        raise NoCrossingError("theta - pi/2 never changes sign")
    if len(locs) > 1:
        raise MultipleCrossingsError(
            f"theta - pi/2 changes sign {len(locs)} times; expected once"
        )
    shift = locs[0]
    if shift == 0.0:
        return p
    theta = np.interp(x + shift, x, p.theta, left=p.theta[0], right=p.theta[-1])
    theta[0], theta[-1] = p.theta[0], p.theta[-1]
    return p.with_theta(theta)


def write_text_atomic(path, text: str) -> None:
    """Write text to path through a temp file in the same directory and a
    rename, so readers see either the old file or the complete new one."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp_", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_profile(path, p: WallProfile) -> None:
    """Write a profile atomically: the header ``# nu=... h=... n=... L=...``,
    then theta at the nodes of ``make_grid(n, L)``, one value per line.

    Values are written with 17 significant digits so that the round trip is
    bit exact.
    """
    g, m = p.grid, p.params
    header = f"# nu={m.nu:.17g} h={m.h:.17g} n={g.n:d} L={g.half_width:.17g}\n"
    write_text_atomic(path, header + ("%.17g\n" * g.n) % tuple(p.theta.tolist()))


def load_profile(path) -> WallProfile:
    """Read a profile written by :func:`save_profile`: a header setting
    exactly nu, h, n and L, then n finite theta values, one per line."""
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("#"):
            raise ValueError("profile file missing parameter header")
        fields = {}
        for tok in header[1:].split():
            key, sep, value = tok.partition("=")
            if not sep:
                raise ValueError(f"profile header token {tok!r} is not key=value")
            if key not in ("nu", "h", "n", "L"):
                raise ValueError(f"profile header has unknown key {key!r}")
            if key in fields:
                raise ValueError(f"profile header sets {key} twice")
            fields[key] = value
        missing = [key for key in ("nu", "h", "n", "L") if key not in fields]
        if missing:
            raise ValueError(f"profile header lacks {', '.join(missing)}")
        nu = float(fields["nu"])
        h = float(fields["h"])
        n = int(fields["n"])
        half_width = float(fields["L"])
        theta = np.loadtxt(fh, ndmin=1)
    if theta.shape != (n,):
        raise ValueError(f"expected {n} lines of one theta each, got shape {theta.shape}")
    bad = np.flatnonzero(~np.isfinite(theta))
    if bad.size:
        raise ValueError(f"{path}: data row {bad[0] + 1}, theta = {theta[bad[0]]}, is not finite")
    return WallProfile(grid=make_grid(n, half_width), theta=theta, params=make_params(nu, h))
