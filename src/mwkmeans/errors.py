"""Exception types shared across the package."""


class MwkError(Exception):
    """Base class for all library errors."""


class EmptyMatrixError(MwkError):
    pass


class RaggedRowsError(MwkError):
    pass


class NonFiniteError(MwkError):
    def __init__(self, row: int, col: int):
        super().__init__(f"non-finite value at ({row}, {col})")
        self.row = row
        self.col = col


class NonNumericError(MwkError):
    def __init__(self, row: int, col: int):
        super().__init__(f"non-numeric value at ({row}, {col})")
        self.row = row
        self.col = col


class DimensionMismatchError(MwkError):
    pass


class InvalidConfigError(MwkError):
    pass


class EmptyClusterError(MwkError):
    def __init__(self, cluster: int):
        super().__init__(f"cluster {cluster} is empty")
        self.cluster = cluster


class NonpositiveDispersionError(MwkError):
    pass


class DispersionOverflowError(MwkError):
    """A dispersion of finite data and centres is not finite: some
    |x - z|^p, or a sum of them, overflowed float64."""

    def __init__(self, p: float):
        super().__init__(f"|x - z|^p overflowed at p = {p:g}: a dispersion is not finite")
        self.p = p


class InvalidCError(MwkError):
    pass


class InvalidMError(MwkError):
    pass


class NonpositiveValueError(MwkError):
    pass


class ConstantFeatureError(MwkError):
    def __init__(self, feature: int):
        super().__init__(f"feature {feature} is constant (zero range)")
        self.feature = feature


class CsvParseError(MwkError):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class BoundViolationError(MwkError):
    pass


class InvalidSpecError(MwkError):
    pass
