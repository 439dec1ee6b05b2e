"""Shared pytest plumbing: the acceptance-criterion scoreboard, and the
factors that ``eigs`` and the domain solves take.

Each acceptance test records one line before asserting, so the summary block
at the end of every run lists PASS/FAIL for all criteria regardless of where
pytest stops printing captured output.
"""

from homlab.domain import coercivity_check, constant_matrix
from homlab.fem import assemble_mass, assemble_stiffness, factorize, interior_operator
from homlab.spectral import eigs, eps_sigma_bound

_ACCEPTANCE_LINES = {}


def factor(op, mass=None, sigma=0.0):
    """Sparse LU factor of ``op - sigma * mass`` (of ``op`` alone without
    ``mass``), formed as the pipeline's operator tasks form it, so a test
    solves with the same factor a run would."""
    return factorize(op if mass is None else op - sigma * mass)


def shifted_eigs(op, mass, k, *, sigma, **kwargs):
    """:func:`eigs` with its factor of ``op - sigma * mass``."""
    return eigs(op, mass, k, sigma=sigma, lu=factor(op, mass, sigma),
                **kwargs)


def effective_factor(grid, a_hat, m=0.0):
    """Factor of the interior effective operator K + m M."""
    k = interior_operator(grid, assemble_stiffness(grid, constant_matrix(a_hat)))
    mass = interior_operator(grid, assemble_mass(grid))
    return factor(k + m * mass)


def eps_factor_and_report(p):
    """What the pipeline's ``eps`` task hands :func:`solve_eps`: the factor
    of ``L_eps - sigma M`` at :func:`eps_sigma_bound`, and the coercivity
    report read from the first eigenvalue it finds."""
    sigma = eps_sigma_bound(p)
    op = p.operator_interior()
    lu = factor(op, p.mass_interior(), sigma)
    spectrum = eigs(op, p.mass_interior(), 1, sigma=sigma, lu=lu,
                    epsilon=p.epsilon)
    return lu, coercivity_check(spectrum, 0.0)


def record_criterion(num: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    _ACCEPTANCE_LINES[num] = f"[criterion {num:02d}] {verdict} — {detail}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(_ACCEPTANCE_LINES[num])
