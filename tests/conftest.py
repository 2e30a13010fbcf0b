"""Checks that hold after every test."""

import sys

import pytest


@pytest.fixture(autouse=True)
def no_child_process_outlives_the_test():
    """Fail a test after which a multiprocessing child is still running, and end the child."""
    yield
    mp = sys.modules.get("multiprocessing")  # loaded by whatever started a child
    left = mp.active_children() if mp is not None else []
    for child in left:
        child.kill()
        child.join(5.0)
    if left:
        pytest.fail(f"child processes outlived the test: {left}")
