"""Exception hierarchy shared by the frontend, type system and runtime."""


class MeshError(Exception):
    """Base class for every error raised by meshlite."""


class SourceError(MeshError):
    """An error at a position in the source: its line, column and reason."""

    def __init__(self, message, line, column):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column
        self.reason = message


class LexError(SourceError):
    """Source text that does not split into tokens."""


class ParseError(SourceError):
    """Tokens that do not form a program."""


class InvalidCombination(MeshError):
    """Two type constructors cannot be combined in one chain."""


class IncompletePlan(MeshError):
    """A chain cannot be turned into a complete allocation plan."""


class CheckError(MeshError):
    """Raised when type checking produced diagnostics; carries the list."""

    def __init__(self, diagnostics):
        super().__init__("\n".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


class RuntimeFault(MeshError):
    """Aborts a run; carries the originating rank and source location."""

    def __init__(self, message, rank=None, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" at {line}:{column}"
        who = f"rank {rank}: " if rank is not None else ""
        super().__init__(f"{who}{message}{loc}")
        self.rank = rank
        self.line = line
        self.column = column
        self.reason = message


class DeadlockError(RuntimeFault):
    """Every unfinished process waits, and none can wake another."""


class InvalidPartition(MeshError):
    pass


class BadDistribution(MeshError):
    pass


class ShareFootprintMismatch(MeshError):
    pass


class ShapeMismatch(MeshError):
    pass


class IndexOutOfBounds(MeshError):
    pass


class NotPowerOfTwo(MeshError):
    pass


class BadLength(MeshError):
    pass


class IoError(MeshError):
    pass


class FormatError(MeshError):
    pass
