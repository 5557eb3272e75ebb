"""Exception hierarchy for data and contract failures.

Everything raised on bad *data* derives from :class:`CitescaleError`.  The
CLI maps only these and :class:`OSError` to exit code 1, while argparse
keeps owning usage errors (exit code 2); any other exception is a library
bug and surfaces as a traceback.  Parameter misuse inside the library
(a fraction outside (0, 1), an unknown scaling method, ...) raises plain
:class:`ValueError`.  An undefined statistic is data, not an error:
:func:`~citescale.scaling.scale_corpus` skips its group with a reason.
"""


class CitescaleError(Exception):
    """Base class for all data-level errors in this package."""


class CorpusFormatError(CitescaleError):
    """CSV structure is wrong: bad header, missing or extra columns."""


class CorpusValueError(CitescaleError):
    """A cell holds an unusable value, in input row ``row`` when one is to blame."""

    def __init__(self, message: str, row: int | None = None) -> None:
        super().__init__(message)
        self.row = row


class DuplicateRecordError(CorpusValueError):
    """A (pub_id, category) pair occurs twice in a Corpus or a strict CSV."""


class EmptyCorpusError(CitescaleError):
    """The corpus (or input file) contains no publication records."""


class EmptyGroupError(CitescaleError):
    """A statistic was requested on an empty citation vector."""


class ScenarioError(CitescaleError):
    """A synthetic-corpus scenario holds invalid family parameters."""
