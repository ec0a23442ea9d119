"""Host-speed calibration, so run-to-run noise of a shared host cancels.

On a shared machine the speed of one CPU moves by tens of percent from one
second to the next, with whatever else runs beside it.  The measuring loop
therefore times a fixed pure-Python calibration loop between items (at
least every ``WINDOW_S`` of item time) and scales each item's time by
``REFERENCE_S`` over the mean calibration time just before and just after
it.  The
calibration touches no code of the program under test, so a change to the
program moves the scaled times exactly as it moves the raw ones; a host
that is slower for a while moves both the item and the calibration, and
cancels.  Scaled times read as seconds at the reference speed: the speed at
which the calibration takes ``REFERENCE_S``.
"""

from __future__ import annotations

import time

#: Calibration time at the reference speed (about that of an idle 2 GHz
#: Xeon vCPU).
REFERENCE_S = 0.0003
#: Item time between two calibrations.
WINDOW_S = 0.02

# A fixed stack-machine program: dispatch, dict traffic, small allocations
# and string conversion -- the kinds of work a Python interpreter loop,
# a parser and a tree walker do.
_PROGRAM = tuple((op, arg) for arg in range(12) for op in (0, 0, 1, 2, 3, 1, 4))


class _Node:
    __slots__ = ("kind", "value", "next")

    def __init__(self, kind: int, value: int, next_node) -> None:
        self.kind = kind
        self.value = value
        self.next = next_node


def _work() -> int:
    table: dict[int, int] = {}
    acc = 0
    for round_ in range(30):
        stack: list[int] = []
        for op, arg in _PROGRAM:
            if op == 0:
                stack.append(arg + round_)
            elif op == 1:
                right = stack.pop()
                stack.append((stack.pop() * 31 + right) & 0xFFFF)
            elif op == 2:
                table[arg] = stack[-1]
            elif op == 3:
                stack.append(table.get(arg ^ round_, 0))
            else:
                stack.append(len(str(stack.pop())))
        node = None
        for value in stack:
            node = _Node(value % 3, value, node)
        while node is not None:
            acc = (acc + node.value) if node.kind else (acc ^ node.value)
            node = node.next
    return acc


def calibrate() -> float:
    """Seconds one calibration loop takes right now (the mean of two)."""
    began = time.perf_counter()
    _work()
    _work()
    return (time.perf_counter() - began) / 2.0


def scale(before: float, after: float) -> float:
    """Factor from raw seconds to seconds at the reference speed, for work
    done between two calibrations."""
    return REFERENCE_S / ((before + after) / 2.0)
