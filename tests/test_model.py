import math

import numpy as np
import pytest

from neelwall import (
    MultipleCrossingsError,
    NoCrossingError,
    load_profile,
    make_grid,
    make_initial_profile,
    make_params,
    recenter,
    save_profile,
)
from neelwall.model import _crossing_locations


def test_params_validation():
    p = make_params(1.0, 0.5)
    assert p.theta_h == pytest.approx(math.asin(0.5))
    assert make_params(0.0, 0.0).nu == 0.0
    with pytest.raises(ValueError):
        make_params(-1.0, 0.0)
    with pytest.raises(ValueError):
        make_params(1.0, 1.0)
    with pytest.raises(ValueError):
        make_params(1.0, -0.1)
    for nu, h in ((math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan)):
        with pytest.raises(ValueError):
            make_params(nu, h)


def test_grid_construction():
    g = make_grid(101, 20.0)
    assert g.n == 101
    assert g.nodes[g.center_index] == 0.0
    assert np.array_equal(g.nodes, -g.nodes[::-1])
    assert g.spacing == pytest.approx(40.0 / 100)
    with pytest.raises(ValueError):
        make_grid(100, 20.0)
    with pytest.raises(ValueError):
        make_grid(7, 20.0)
    with pytest.raises(ValueError):
        make_grid(101, -1.0)
    # 1e308 spaces the nodes by NaN, 1e200 by a dx whose square overflows
    # and 1e-300 by one whose square vanishes
    for half_width in (math.inf, math.nan, 1e308, 1e200, 1e-300):
        with pytest.raises(ValueError, match="half_width"):
            make_grid(101, half_width)


@pytest.mark.parametrize("kind", ["template", "kink", "perturbed"])
def test_initial_profiles_admissible(kind):
    params = make_params(1.0, 0.3)
    # at L = 800 the kink's e^{-x} would overflow at the left end
    for half_width in (40.0, 800.0):
        p = make_initial_profile(make_grid(257, half_width), params, kind=kind)
        assert p.theta[0] == pytest.approx(math.pi - params.theta_h)
        assert p.theta[-1] == pytest.approx(params.theta_h)
        z = p.theta - math.pi / 2
        assert np.sum(np.sign(z[:-1]) != np.sign(z[1:])) >= 1


def test_perturbed_profile_seeded():
    params = make_params(1.0, 0.0)
    grid = make_grid(257, 40.0)
    a = make_initial_profile(grid, params, kind="perturbed", seed=3)
    b = make_initial_profile(grid, params, kind="perturbed", seed=3)
    c = make_initial_profile(grid, params, kind="perturbed", seed=4)
    assert np.array_equal(a.theta, b.theta)
    assert not np.array_equal(a.theta, c.theta)


def test_recenter_moves_crossing_to_origin():
    params = make_params(0.0, 0.0)
    grid = make_grid(513, 40.0)
    shift = 1.7
    theta = 2.0 * np.arctan(np.exp(-(grid.nodes - shift)))
    p = make_initial_profile(grid, params, kind="kink").with_theta(theta)
    q = recenter(p)
    assert q.theta[grid.center_index] == pytest.approx(math.pi / 2, abs=1e-12)


def _crossing_locations_reference(x, z):
    # the node-by-node loop that _crossing_locations replaced
    locs = []
    i = 0
    n = len(z)
    while i < n:
        if z[i] == 0.0:
            j = i
            while j + 1 < n and z[j + 1] == 0.0:
                j += 1
            locs.append(0.5 * (x[i] + x[j]))
            i = j + 1
            continue
        if i + 1 < n and z[i] * z[i + 1] < 0.0:
            locs.append(x[i] + (x[i + 1] - x[i]) * z[i] / (z[i] - z[i + 1]))
        i += 1
    return locs


def test_crossing_locations_match_the_reference_loop():
    # zero runs, touches (a zero between values of one sign) and +-1e-300
    # neighbours, whose product underflows to 0 and is no sign change
    rng = np.random.default_rng(0)
    pool = np.array([0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 0.5, -2.0])
    count, width = 10_000, 23
    zs = np.where(rng.uniform(size=(count, width)) < 0.6,
                  rng.choice(pool, size=(count, width)), rng.normal(size=(count, width)))
    xs = np.cumsum(rng.uniform(0.1, 1.0, size=(count, width)), axis=1) - 3.0
    for x, z, n in zip(xs, zs, rng.integers(1, width + 1, size=count)):
        x, z = x[:n], z[:n]
        got = _crossing_locations(x, z)
        want = _crossing_locations_reference(x, z)
        assert [float.hex(v) for v in got] == [float.hex(float(v)) for v in want], (x, z)


def test_recenter_errors():
    params = make_params(1.0, 0.3)
    grid = make_grid(257, 40.0)
    base = make_initial_profile(grid, params, kind="kink")
    flat = base.with_theta(np.full(grid.n, params.theta_h))
    with pytest.raises(NoCrossingError):
        recenter(flat)
    wiggly = base.with_theta(math.pi / 2 + np.sin(grid.nodes))
    with pytest.raises(MultipleCrossingsError):
        recenter(wiggly)


@pytest.mark.parametrize("n, half_width", [(257, 40.0), (17, 0.1 + 0.2), (8193, 12345.678)])
def test_save_load_round_trip(tmp_path, n, half_width):
    grid = make_grid(n, half_width)
    theta = np.random.default_rng(5).uniform(0.0, math.pi, n)
    theta[3] = -0.0
    p = make_initial_profile(grid, make_params(2.0, 0.25)).with_theta(theta)
    path = tmp_path / "profile.txt"
    save_profile(path, p)
    q = load_profile(path)
    assert q.params == p.params
    assert q.grid == p.grid
    # Grid equality skips the nodes, which the file does not list: the
    # header's n and L must rebuild them bit for bit
    assert q.grid.nodes.tobytes() == p.grid.nodes.tobytes()
    assert q.theta.tobytes() == p.theta.tobytes()


def _save_profile_reference(path, p):
    # a line-by-line writer of the same layout
    g, m = p.grid, p.params
    lines = [f"# nu={m.nu:.17g} h={m.h:.17g} n={g.n:d} L={g.half_width:.17g}\n"]
    for ti in p.theta:
        lines.append(f"{ti:.17g}\n")
    with open(path, "w") as fh:
        fh.write("".join(lines))


@pytest.mark.parametrize("n", [17, 1025, 8193])
def test_save_profile_matches_the_reference_writer(tmp_path, n):
    grid = make_grid(n, 40.0)
    p = make_initial_profile(grid, make_params(2.0, 0.25), kind="perturbed", seed=5)
    theta = p.theta.copy()
    theta[3] = -0.0
    p = p.with_theta(theta)
    save_profile(tmp_path / "new.txt", p)
    _save_profile_reference(tmp_path / "old.txt", p)
    assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()
    assert "\n-0\n" in (tmp_path / "new.txt").read_text()


def test_save_profile_is_atomic(tmp_path, monkeypatch):
    grid = make_grid(257, 40.0)
    p = make_initial_profile(grid, make_params(1.0, 0.3), kind="kink")
    path = tmp_path / "profile.txt"
    path.write_text("previous run\n")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("neelwall.model.os.replace", fail)
    with pytest.raises(OSError):
        save_profile(path, p)
    # the old file is untouched and no temp file is left behind
    assert path.read_text() == "previous run\n"
    assert [f.name for f in tmp_path.iterdir()] == ["profile.txt"]


def test_load_profile_rejects_foreign_x_column(tmp_path):
    # the grid is the header's n and L alone: a file that lists x next to
    # theta on every line fails the shape check, and so does one that puts
    # every theta on one line
    grid = make_grid(257, 40.0)
    p = make_initial_profile(grid, make_params(1.0, 0.3), kind="kink")
    path = tmp_path / "profile.txt"
    rows = "".join(f"{x:.17g} {theta:.17g}\n" for x, theta in zip(grid.nodes, p.theta))
    path.write_text(f"# nu=1 h=0.3 n=257 L=40\n{rows}")
    with pytest.raises(ValueError, match=r"257 lines of one theta each, got shape \(257, 2\)"):
        load_profile(path)
    path.write_text("# nu=1 h=0.3 n=257 L=40\n" + " ".join(f"{theta:.17g}" for theta in p.theta) + "\n")
    with pytest.raises(ValueError, match=r"257 lines of one theta each, got shape \(1, 257\)"):
        load_profile(path)


@pytest.mark.parametrize("row, value", [(5, "nan"), (1, "-inf"), (257, "inf")])
def test_load_profile_names_a_non_finite_row(tmp_path, row, value):
    grid = make_grid(257, 40.0)
    path = tmp_path / "profile.txt"
    save_profile(path, make_initial_profile(grid, make_params(1.0, 0.3), kind="kink"))
    lines = path.read_text().splitlines(keepends=True)
    lines[row] = value + "\n"
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match=f"data row {row},.* is not finite"):
        load_profile(path)


def test_load_profile_names_a_missing_header_key(tmp_path):
    path = tmp_path / "profile.txt"
    path.write_text("# nu=1 h=0 n=17\n")
    with pytest.raises(ValueError, match="lacks L"):
        load_profile(path)


def test_load_profile_names_a_repeated_header_key(tmp_path):
    # the last value used to win: this header loaded at nu = 1
    path = tmp_path / "profile.txt"
    save_profile(path, make_initial_profile(make_grid(257, 20.0), make_params(2.0, 0.0)))
    header, rest = path.read_text().split("\n", 1)
    path.write_text(f"{header} nu=1\n{rest}")
    with pytest.raises(ValueError, match="sets nu twice"):
        load_profile(path)


def test_load_profile_names_a_bad_header_token(tmp_path):
    path = tmp_path / "profile.txt"
    path.write_text("# nu=1 h=0 n=17 L\n")
    with pytest.raises(ValueError, match="token 'L' is not key=value"):
        load_profile(path)
    # a key outside nu, h, n, L is refused, so a misspelt H cannot pass as h
    save_profile(path, make_initial_profile(make_grid(17, 10.0), make_params(1.0, 0.3)))
    header, rest = path.read_text().split("\n", 1)
    path.write_text(f"{header} H=0.9 nu_=3\n{rest}")
    with pytest.raises(ValueError, match="unknown key 'H'"):
        load_profile(path)
