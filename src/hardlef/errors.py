"""Exception hierarchy shared across the package.

The CLI maps these onto its exit-code contract: parse, usage and degree
problems exit 1, validation failures exit 2, internal consistency errors
exit 3.
"""


class HardLefError(Exception):
    """Base class for every error raised by this package."""


class ModelMismatchError(HardLefError):
    """Operands built over different generator frames or models."""


class DegreeError(HardLefError):
    """A degree argument is outside its admissible range."""


class PreconditionError(HardLefError):
    """An operation was invoked outside its contract."""


class ParseError(HardLefError):
    """A model file was rejected; carries the offending position: line and
    column, or the key of a JSON model and the column in its string."""

    def __init__(self, message, line=None, column=None, key=None):
        super().__init__(message)
        self.line = line
        self.column = column
        self.key = key

    def __str__(self):
        base = super().__str__()
        where = self.key or (self.line and f"line {self.line}")
        if where and self.column is not None:
            where += f", column {self.column}"
        return f"{where}: {base}" if where else base


class ValidationError(HardLefError):
    """A declared structure fails one of its defining conditions."""


class NotClosedError(ValidationError):
    """A form required to be closed has a nonzero differential."""


class RankDefectError(ValidationError):
    """d(eta) does not have the full rank 2n."""

    def __init__(self, rank, expected):
        super().__init__(f"rank of d(eta) is {rank}, expected {expected}")
        self.rank = rank
        self.expected = expected


class NotVolumeError(ValidationError):
    """The designated top-degree product has zero top coefficient."""


class NonUniqueLeeFieldError(ValidationError):
    """The characterizing linear system for a Lee-type field is singular."""


class NonUniqueReebError(ValidationError):
    """The characterizing linear system for the Reeb field is singular."""


class NotProjectableError(ValidationError):
    """The Lee direction cannot be split off as a quotient."""


class NotLefschetzError(HardLefError):
    """A Lefschetz relation is not the graph of an isomorphism.

    Carries the failing verdict so callers can name the broken condition.
    """

    def __init__(self, degree, verdict):
        super().__init__(f"Lefschetz relation in degree {degree} is not the "
                         f"graph of an isomorphism")
        self.degree = degree
        self.verdict = verdict


class InternalConsistencyError(HardLefError):
    """A model-level assumption failed in a finite computation."""
