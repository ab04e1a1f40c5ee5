import numpy as np
import pytest

from pdsaddle.instances import quadratic_saddle


@pytest.fixture
def unit_problem():
    """f = 0, g = y^2/2, A = [1]; the simplest well-posed instance."""
    return quadratic_saddle(
        np.zeros((1, 1)), np.zeros(1), np.array([[1.0]]),
        np.array([[0.5]]), np.zeros(1),
    )


@pytest.fixture
def scalar_problem():
    """f = x^2/2, g = y^2/2, A = [1]."""
    return quadratic_saddle(
        np.array([[0.5]]), np.zeros(1), np.array([[1.0]]),
        np.array([[0.5]]), np.zeros(1),
    )


@pytest.fixture
def shifted_problem():
    """f = 0, g = y^2/2 - y, A = [1]; saddle point at (-1, 0)."""
    return quadratic_saddle(
        np.zeros((1, 1)), np.zeros(1), np.array([[1.0]]),
        np.array([[0.5]]), np.array([1.0]),
    )


def pytest_terminal_summary(terminalreporter):
    # pytest puts this directory on sys.path
    from test_acceptance import pinned_mode
    from test_golden import mode
    terminalreporter.write_line(f"golden outputs compared by {mode()}")
    terminalreporter.write_line(f"criterion 7 outputs compared with PINNED {pinned_mode()}")
