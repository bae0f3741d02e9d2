from pathlib import Path

import numpy as np
import pytest

from neelwall import (
    make_grid,
    make_initial_profile,
    make_operator,
    make_params,
    minimize,
)

acceptance_results: dict[str, tuple[bool, str]] = {}


def record_criterion(name: str, passed: bool, detail: str = "") -> None:
    acceptance_results[name] = (passed, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for name, (passed, detail) in sorted(acceptance_results.items()):
        status = "PASS" if passed else "FAIL"
        line = f"{status} {name}"
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)


# a file or other resource left for the garbage collector to close fails a
# test here. pyproject.toml cannot scope this: perfbench's tests, which it
# also configures, still leave JSON files open (ROADMAP item 6)
LEAK_FILTERS = ("error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning")


def pytest_collection_modifyitems(items):
    here = Path(__file__).parent
    for item in items:
        if item.path.is_relative_to(here):
            for spec in LEAK_FILTERS:
                item.add_marker(pytest.mark.filterwarnings(spec))


@pytest.fixture(scope="session")
def operators():
    cache = {}

    def get(n=513, half_width=40.0):
        key = (n, half_width)
        if key not in cache:
            grid = make_grid(n, half_width)
            cache[key] = (grid, make_operator(grid))
        return cache[key]

    return get


@pytest.fixture(scope="session")
def solved(operators):
    """Cached minimizations keyed by the full configuration."""
    cache = {}

    def get(nu, h, n=513, half_width=40.0, kind="template", **kw):
        key = (nu, h, n, half_width, kind, tuple(sorted(kw.items())))
        if key not in cache:
            grid, op = operators(n, half_width)
            params = make_params(nu, h)
            p0 = make_initial_profile(grid, params, kind=kind, **kw)
            p, report = minimize(p0, op=op)
            cache[key] = (p, report)
        return cache[key]

    return get


@pytest.fixture
def rng():
    return np.random.default_rng(0)
