"""repro.study — declarative experiment sweeps over the evaluation pipeline.

The sweep counterpart of the compile-once/run-many plan API: declare axes
with :meth:`~repro.study.builder.StudyBuilder.over`, target a machine with
:meth:`~repro.study.builder.StudyBuilder.on`, attach a per-cell metric, and
:meth:`~repro.study.builder.StudyBuilder.run` evaluates the cross-product
in order with memoized profiles/estimates and returns an immutable,
queryable :class:`~repro.study.resultset.ResultSet`.

Every figure and table of :mod:`repro.harness.experiments` is a thin study
definition; user code composes new sweeps the same way.
"""

from repro.study.builder import StudyBuilder, StudyCell, study
from repro.study.cache import CacheStats, EvalCache
from repro.study.hashing import config_hash, freeze
from repro.study.resultset import Provenance, ResultSet

__all__ = [
    "StudyBuilder",
    "StudyCell",
    "study",
    "CacheStats",
    "EvalCache",
    "config_hash",
    "freeze",
    "Provenance",
    "ResultSet",
]
