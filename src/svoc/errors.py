"""Exception types shared across the package."""


class NumericsError(RuntimeError):
    """Base class for runtime numerical failures."""


class StateBlowupError(NumericsError):
    """The forward recursion produced a non-finite or absurdly large value."""

    def __init__(self, index: int, value: float):
        super().__init__(
            f"state left the trusted range at node index {index} (value {value:g})"
        )
        self.index = index
        self.value = float(value)


class AdjointStepError(NumericsError):
    """The implicit diagonal of a backward step is numerically singular."""

    def __init__(self, index: int, coefficient: float):
        super().__init__(
            f"backward step {index}: diagonal coefficient 1 - w*df/dy = {coefficient:g}"
            " is unusable"
        )
        self.index = index
        self.coefficient = float(coefficient)


class KernelAssemblyError(NumericsError):
    """A kernel table entry became non-finite during assembly."""

    def __init__(self, row: int, col: int):
        super().__init__(
            f"kernel regular part became non-finite at grid pair ({row}, {col})"
        )
        self.row = row
        self.col = col


class KernelAsymmetryError(NumericsError):
    """An assembled kernel that should be symmetric is not, beyond roundoff."""


class SeriesError(NumericsError):
    """A series evaluation failed to converge within its budget."""
