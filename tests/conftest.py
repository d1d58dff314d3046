import os

import numpy as np
import pytest

from gnlab import dmrg
from gnlab.model import ModelSpec

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")


def pytest_report_header(config):
    """Record the BLAS threading of the run: oversubscribed BLAS slows the DMRG tests several-fold."""
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = "; ".join(f"{key}={deps[key].get('name')} {deps[key].get('version')}"
                         for key in ("blas", "lapack") if key in deps)
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    threads = " ".join(f"{var}={os.environ.get(var, 'unset')}" for var in THREAD_VARS)
    return [f"threads: {threads}", f"numpy {np.__version__} BLAS: {blas}"]


def pytest_terminal_summary(terminalreporter, config):
    """`-q` hides the header, so a quiet run ends with the same lines."""
    if config.option.verbose < 0:
        for line in pytest_report_header(config):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def reference_points():
    return ((0.2, 1.5), (0.4, 1.0))


@pytest.fixture
def small_spec():
    return ModelSpec(n_sites=3, spacing=0.5, bare_mass=0.2, coupling_sq=1.5)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def local_solve_counts(monkeypatch):
    """Count the local solves (two-site matvecs built) and the products they take."""
    counts = {"solves": 0, "matvecs": 0}
    build = dmrg._two_site_matvec

    def counting_matvec(*args):
        matvec = build(*args)
        counts["solves"] += 1

        def counted(vec):
            counts["matvecs"] += 1
            return matvec(vec)

        return counted

    monkeypatch.setattr(dmrg, "_two_site_matvec", counting_matvec)
    return counts
