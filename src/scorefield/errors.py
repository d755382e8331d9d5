"""Exception types shared across the library."""


class ScoreFieldError(Exception):
    """Base class for all scorefield errors."""


class EmptyInput(ScoreFieldError):
    """An operation received an empty point cloud or empty list."""


class InvalidData(ScoreFieldError):
    """Input data violates a precondition (non-finite entries, asymmetry, ...)."""


class ShapeError(ScoreFieldError):
    """Array dimensions do not match the operation's contract."""


class InvalidNoise(ScoreFieldError):
    """Noise scale sigma is outside the valid domain (must be > 0)."""


class WrongVariant(ScoreFieldError):
    """Operation requires a different score-model variant."""


class InvalidInput(ScoreFieldError):
    """Scalar parameter outside its valid domain."""


class InvalidSchedule(ScoreFieldError):
    """Noise/signal schedule violates its constraints."""


class DegeneratePlane(ScoreFieldError):
    """Anchor points or trajectory endpoints do not span a 2D plane."""


class GridMismatch(ScoreFieldError):
    """Two trajectories do not share the same noise levels."""


class InvalidK(ScoreFieldError):
    """Cluster count outside 1 <= K <= N."""


class InvalidSkip(ScoreFieldError):
    """Teleportation skip level outside (sigma_min, sigma_max] or off-grid."""


class NumericalBlowup(ScoreFieldError):
    """A sampler or a score comparison produced a non-finite value."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step
