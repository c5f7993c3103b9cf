import os
import sys
import tracemalloc

sys.path.insert(0, os.path.dirname(__file__))


def traced(op):
    """``op()``, then the bytes it still holds and its peak, by tracemalloc; memory made before the call
    does not count."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = op()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held - before, peak - before


def held_beyond_output(op):
    """``op()`` and the bytes it holds between forward and backward beyond its output's data."""
    out, held, _ = traced(op)
    return out, held - out.data.nbytes
