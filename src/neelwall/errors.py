"""Exception types shared across the package."""


class NeelWallError(Exception):
    """Base class for all package-specific errors."""


class NoCrossingError(NeelWallError):
    """theta - pi/2 never changes sign, so the profile cannot be recentred."""


class MultipleCrossingsError(NeelWallError):
    """theta - pi/2 changes sign more than once; recentring is ambiguous."""


class TailTooLargeError(NeelWallError):
    """Input to a nonlocal operator does not decay at the grid ends.

    Usually means the caller passed theta instead of u = sin(theta) - h.
    """


class WindowTooNoisyError(NeelWallError):
    """The x^2-tail plateau varies too much over the fitting window."""


class NotRecentredError(NeelWallError):
    """Path construction requires theta(0) = pi/2 on both endpoints."""


class FlatTopError(NeelWallError):
    """|sin theta| = 1 at a node other than the center, where the arcsin
    path's t-derivatives divide by cos theta = 0."""


class RangeViolationError(NeelWallError):
    """A path input out of range: a profile off the branch box (theta in
    [0, pi/2] on x > 0, in [pi/2, pi] on x < 0) or a path parameter t
    outside [0, 1]."""
