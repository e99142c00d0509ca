import sys
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    max_examples=50,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def rationals(max_abs=5, max_den=6):
    return st.fractions(
        min_value=Fraction(-max_abs), max_value=Fraction(max_abs), max_denominator=max_den
    )


def coeff_lists(max_size=5):
    return st.lists(rationals(), min_size=0, max_size=max_size)


@pytest.fixture
def interlacing_poly_calls(monkeypatch):
    """The arguments of every ``invariants.interlacing_poly`` call the package makes during the test.

    The function is replaced in every zetatower namespace that holds it, which
    is where a caller looks it up; a test module's own import stays the real one.
    """
    from zetatower import invariants

    calls, real = [], invariants.interlacing_poly

    def counting(*args):
        calls.append(args)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name == "zetatower" or name.startswith("zetatower."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counting)
    return calls
