"""Error types shared across the package."""


class PoseliftError(Exception):
    pass


class InvalidInputError(PoseliftError, ValueError):
    """Malformed or non-finite input data."""


class TopologyError(PoseliftError, ValueError):
    """Skeleton topology is inconsistent or missing required keypoints."""


class DegenerateInputError(PoseliftError, ValueError):
    """Input has no spatial spread where spread is required."""


class InvalidWindowError(PoseliftError, ValueError):
    """Temporal window has the wrong length for the requested operation."""


class ConfigError(PoseliftError, ValueError):
    """Configuration value out of range or inconsistent."""


class TrainingDivergedError(PoseliftError, RuntimeError):
    """Loss, or a parameter after a step, became non-finite; carries the last
    good parameter state."""

    def __init__(self, message, checkpoint=None):
        super().__init__(message)
        self.checkpoint = checkpoint
