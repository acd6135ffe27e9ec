"""Run-time values beyond plain numbers, and the binary operators.

Shared by the closures of compiler.py and the process context of interp.py.
"""

import operator

from .errors import IndexOutOfBounds


class BlockRef:
    def __init__(self, array, block):
        self.array = array
        self.block = block


class LineSlice:
    """One contiguous line of a block buffer."""

    def __init__(self, array, block, line_index):
        self.array = array
        self.block = block
        lines = block.high - block.low + 1
        if not 0 <= line_index < lines:
            raise IndexOutOfBounds(
                f"line {line_index} outside block {block.block_id} of {array.name} "
                f"({lines} lines)")
        self.length = len(block.buffer) // lines
        self.start = line_index * self.length

    def __len__(self):
        return self.length

    def get(self, i):
        if not 0 <= i < self.length:
            raise IndexOutOfBounds(f"offset {i} outside line of length {self.length}")
        return self.block.buffer[self.start + i]

    def values(self):
        return self.block.buffer[self.start : self.start + self.length]

    def store(self, values):
        self.block.buffer[self.start : self.start + self.length] = values


class Local:
    """A process-local variable's frame slot. A call's frame and a run-once
    loop share the cell itself, so a store through one is seen by all."""
    __slots__ = ("value",)

    def __init__(self, value=None):
        self.value = value


def _divide(left, right):
    """Integer division floors; anything else divides as Python does."""
    if isinstance(left, int) and isinstance(right, int):
        if right == 0:
            raise ZeroDivisionError("division by zero")
        return left // right
    return left / right


# Binary operators; each raises TypeError or ZeroDivisionError on bad operands.
OPERATORS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _divide,
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "<": lambda a, b: int(a < b),
    "<=": lambda a, b: int(a <= b),
    ">": lambda a, b: int(a > b),
    ">=": lambda a, b: int(a >= b),
}


def row_of(array, index):
    """A[index] of a 2D array: a block reference, or a line if unpartitioned."""
    if array.descriptor.partition is None:
        return LineSlice(array, array.block(0), index)
    return BlockRef(array, array.block(index))


def owned_blocks(array, rank):
    """Block ids of array that rank owns, in order."""
    if array.replicated:
        return [0]
    return [b.block_id for b in array.blocks if b.owner == rank]
