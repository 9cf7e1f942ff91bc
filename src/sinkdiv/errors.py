"""Typed exceptions raised across the package."""


class SinkdivError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(SinkdivError):
    """Inputs disagree on the ambient dimension or on array shapes."""


class NegativeWeightError(SinkdivError):
    """A measure carries a negative weight."""


class NonFiniteValueError(SinkdivError):
    """A measure carries a NaN or infinite point coordinate or weight."""


class MeasureFileError(SinkdivError):
    """A line of a measure file is not a row of numbers of the file's width."""


class WeightSumDeviationError(SinkdivError):
    """Measure weights do not sum to one within tolerance."""


class PointOutsideBoxError(SinkdivError):
    """A support point lies outside the declared bounding box."""


class SupportMismatchError(SinkdivError):
    """Two measures that must share a support point list do not."""


class ZeroMassError(SinkdivError):
    """A measure or point set has no mass: no atoms, zero total weight or a vanishing density."""


class NonDifferentiablePointError(SinkdivError):
    """Gradient requested at a point where the function has a kink."""


class ZeroDiscrepancyError(SinkdivError):
    """Witness function undefined because the discrepancy vanishes."""


class SizeExceededError(SinkdivError):
    """Problem size exceeds the cap of the exact solver."""


class NotNegatedKernelError(SinkdivError):
    """Operation requires a cost of the form c = -K for a kernel K."""


class ConfigError(SinkdivError):
    """Invalid run configuration (bad key, bad type, missing field)."""
