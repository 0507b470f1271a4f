import contextlib
import sys

import pytest
from hypothesis import Phase, settings

# No explain phase: on a failing example it runs the test on variations of
# that example to annotate the report, and once ran a failing test past
# 100 s and about 680 MB.  Settings a test gives itself still apply.
settings.register_profile("no-explain", phases=tuple(phase for phase in Phase if phase is not Phase.explain))
settings.load_profile("no-explain")


@contextlib.contextmanager
def _int_str_cap(digits):
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


@pytest.fixture
def no_int_str_cap():
    """No int-to-str cap while the test runs, for oracles that call str() or int() on big ints."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield  # no cap before 3.11
        return
    with _int_str_cap(0):
        yield


@pytest.fixture
def default_int_str_cap():
    """CPython's default 4300-digit int-to-str cap while the test runs, as a caller that never lifts it has."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int-to-str cap before 3.11")
    with _int_str_cap(4300):
        yield


@pytest.fixture
def relation_texts(monkeypatch):
    """A setter of recurrence.IDENTITY_RELATIONS for the test, which relations reads each time it checks them."""
    from triwords import recurrence

    return lambda relations: monkeypatch.setattr(recurrence, "IDENTITY_RELATIONS", tuple(relations))
