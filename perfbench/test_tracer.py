"""Self-test of the tracer's self-time arithmetic on synthetic nested calls.

Run with `python3 -m pytest perfbench/test_tracer.py` or
`python3 perfbench/test_tracer.py`.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_excludes_traced_children():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 2.0

    leaf = tracer.wrap("leaf", leaf)

    def middle():
        clock.now += 0.25
        leaf()

    middle = tracer.wrap("middle", middle)

    def outer():
        clock.now += 1.0
        middle()
        clock.now += 0.5
        leaf()

    tracer.wrap("outer", outer)()
    stats = {k: (s.calls, s.self_s) for k, s in tracer.stats.items()}
    assert stats == {"leaf": (2, 4.0), "middle": (1, 0.25), "outer": (1, 1.5)}


def test_recursion_and_exceptions_close_spans():
    clock = FakeClock()
    tracer = Tracer(clock)

    def countdown(n):
        clock.now += 1.0
        if n == 0:
            raise ValueError("bottom")
        countdown(n - 1)

    countdown = tracer.wrap("countdown", countdown)
    try:
        countdown(2)
    except ValueError:
        pass
    st = tracer.stats["countdown"]
    assert (st.calls, st.self_s) == (3, 3.0)
    assert tracer._child_time == []


if __name__ == "__main__":
    test_self_time_excludes_traced_children()
    test_recursion_and_exceptions_close_spans()
    print("tracer self-test passed")
