"""Exception types shared across the package."""


class PFGuideError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(PFGuideError):
    """Scenario configuration is malformed or inconsistent."""


class DomainError(PFGuideError):
    """Argument outside the mathematical domain of an operation."""


class NonRegularPath(PFGuideError):
    """Path speed factor too small for a well-defined Frenet frame."""


class StateEscape(PFGuideError):
    """Integration produced a non-finite state."""


class UnstableTerminalLoop(PFGuideError):
    """Terminal controller does not stabilize the linearized model."""


class InfeasibleStart(PFGuideError):
    """Previous input violates the input box set."""


class Infeasible(PFGuideError):
    """QP constraints admit no feasible point."""


class QPFailure(PFGuideError):
    """QP back-end failed to reach its tolerance."""


class EmptyTrace(PFGuideError):
    """Metrics requested on a trace with no records."""
