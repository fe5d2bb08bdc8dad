import tracemalloc

import pytest


def _traced_peak(fn):
    """Run fn() under tracemalloc and return (its result, peak bytes, retained bytes).

    Only allocations made during the call are traced: the peak is the most
    they held at once, and the retained bytes are what they still hold
    when fn returns (the result included).
    """
    tracemalloc.start()
    try:
        result = fn()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, retained


@pytest.fixture
def traced_peak():
    """The `_traced_peak(fn)` helper."""
    return _traced_peak
