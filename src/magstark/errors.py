"""Exception types shared across the package."""


class MagstarkError(Exception):
    """Base class for all package errors."""


class ConfigurationError(MagstarkError):
    """A parameter violates a documented precondition; message names the field."""


class DecayCertificateError(MagstarkError):
    """A sampled potential exceeds its declared decay envelope."""


class CapacityError(MagstarkError):
    """A dense matrix would exceed the byte limit; raised before allocating it."""


class NearSingularityError(MagstarkError):
    """A resolvent was requested too close to the spectrum."""


class SpectralWindowError(MagstarkError):
    """A test function's support leaves the reliably resolved spectral window."""


class GapNotFoundError(MagstarkError):
    """No spectral interval with the requested margin to the localized spectrum."""


class GeometryError(MagstarkError):
    """A cutoff or truncation radius does not fit inside the computational domain."""
