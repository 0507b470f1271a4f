import sys

import pytest

# Engine outputs exceed CPython's default 4300-digit str() cap well within
# the tested range; tests print and parse full decimals.
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)


@pytest.fixture
def default_int_str_cap():
    """CPython's default 4300-digit int-to-str cap while the test runs, as a caller that never lifts it has."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int-to-str cap before 3.11")
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)
