import os

import pytest


@pytest.fixture(autouse=True)
def no_worker_left_behind():
    """Every child a test starts, verify's forked workers among them, is
    reaped by the time the test ends."""
    yield
    if hasattr(os, "fork"):
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
