"""Shared pytest plumbing: the acceptance-criterion scoreboard, and the
effective-operator factor that ``solve_homogenized`` takes.

Each acceptance test records one line before asserting, so the summary block
at the end of every run lists PASS/FAIL for all criteria regardless of where
pytest stops printing captured output.
"""

from homlab.domain import constant_matrix
from homlab.fem import assemble_mass, assemble_stiffness, factorize, interior_operator

_ACCEPTANCE_LINES = {}


def effective_factor(grid, a_hat, m=0.0):
    """Sparse LU factor of the interior effective operator K + m M."""
    k = interior_operator(grid, assemble_stiffness(grid, constant_matrix(a_hat)))
    mass = interior_operator(grid, assemble_mass(grid))
    return factorize(k.mat + m * mass.mat)


def record_criterion(num: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    _ACCEPTANCE_LINES[num] = f"[criterion {num:02d}] {verdict} — {detail}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(_ACCEPTANCE_LINES[num])
