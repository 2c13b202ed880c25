"""Exception hierarchy for the repro package.

A single module owns every exception type so that callers can catch
``ReproError`` to handle any library failure, or a specific subclass when
they need finer granularity.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class GraphFormatError(ReproError):
    """A graph file or edge list could not be parsed or is inconsistent."""


class InvalidGraphError(ReproError):
    """A graph violates a structural invariant (e.g. self loop, bad label)."""


class InvalidOrderError(ReproError):
    """A matching order is not a valid connected permutation of V(q)."""


class FilterError(ReproError):
    """A candidate filter was misused or produced an inconsistent state."""


class EnumerationError(ReproError):
    """The enumeration procedure was configured or invoked incorrectly."""


class ModelError(ReproError):
    """A neural network / policy model error (shape mismatch, bad config)."""


class TrainingError(ReproError):
    """The RL training loop hit an unrecoverable condition."""


class DatasetError(ReproError):
    """A dataset or workload could not be constructed or located."""


class RegistryError(ReproError):
    """A component or dataset name (or spec) does not resolve."""


class CanonicalizationError(InvalidGraphError):
    """Canonical labeling exceeded its search budget (adversarially
    symmetric graph); callers fall back to uncached/uncanonicalized
    handling."""
