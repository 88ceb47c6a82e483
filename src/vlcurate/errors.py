"""Exception hierarchy for the curation pipeline.

Every error raised by the library derives from VlcurateError so callers
(and the CLI) can map failures to exit codes by catching one base class.
"""

from __future__ import annotations


class VlcurateError(Exception):
    """Base class for all pipeline errors."""


# -- corpus ------------------------------------------------------------

class DuplicateId(VlcurateError):
    pass


class MalformedRecord(VlcurateError):
    def __init__(self, line_no: int | None, reason: str):
        super().__init__(reason if line_no is None else f"line {line_no}: {reason}")
        self.line_no = line_no


class EmptyResponse(VlcurateError):
    def __init__(self, sample_id: str):
        super().__init__(f"sample {sample_id!r} has an empty response")
        self.sample_id = sample_id


class MissingFeature(VlcurateError):
    def __init__(self, sample_id: str, matrix: str):
        super().__init__(f"no {matrix!r} feature row for id {sample_id!r}")
        self.sample_id = sample_id
        self.matrix = matrix


class DimensionMismatch(VlcurateError):
    pass


class NonFiniteFeature(VlcurateError):
    pass


class ScoreOutOfRange(VlcurateError):
    pass


# -- indicators --------------------------------------------------------

class DegenerateEmbedding(VlcurateError):
    pass


class TemplateError(VlcurateError):
    pass


class UnparseableScore(VlcurateError):
    pass


class ScoringFailed(VlcurateError):
    def __init__(self, sample_id: str, reason: str = ""):
        detail = f": {reason}" if reason else ""
        super().__init__(f"scoring failed for id {sample_id!r}{detail}")
        self.sample_id = sample_id


class MissingScore(VlcurateError):
    def __init__(self, sample_id: str, indicator: str):
        super().__init__(f"no cached {indicator!r} score for id {sample_id!r}")
        self.sample_id = sample_id
        self.indicator = indicator


# -- numerics ----------------------------------------------------------

class BadRank(VlcurateError):
    pass


class TooManyClusters(VlcurateError):
    pass


class InfeasibleCapacity(VlcurateError):
    pass


class DegenerateAffinity(VlcurateError):
    pass


# -- quality labels ----------------------------------------------------

class EmptyReport(VlcurateError):
    pass


class MissingLabel(VlcurateError):
    def __init__(self, subset_id: int):
        super().__init__(f"no evaluation report for subset {subset_id}")
        self.subset_id = subset_id


class UnknownSubset(VlcurateError):
    pass


# -- selector ----------------------------------------------------------

class BadConfig(VlcurateError):
    pass


class DivergedTraining(VlcurateError):
    def __init__(self, epoch: int, first: float, loss: float):
        super().__init__(f"loss rose from {first:.6g} to {loss:.6g} at epoch {epoch}")
        self.epoch = epoch


class ModelLoadError(VlcurateError):
    pass


# -- curation ----------------------------------------------------------

class InfeasibleAlpha(VlcurateError):
    pass


class QuotaExceedsCluster(VlcurateError):
    pass
