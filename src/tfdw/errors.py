"""Exception types raised by the solver stack.

Structural errors (grid mismatches, bad descriptors) are distinguished from
numerical failures (lost positivity, stalled descent, broken continuation) so
callers can tell a misuse from a model leaving its valid regime.
"""


class TfdwError(Exception):
    """Base class for all package errors."""

    def diagnostics(self):
        """JSON-ready partial diagnostics the error carries (none here)."""
        return {}


class GridMismatchError(TfdwError):
    """Operands live on different grids."""


class StructuralError(TfdwError):
    """Inconsistent metadata (shapes, descriptors, scaling parameters)."""


class SolvabilityError(TfdwError):
    """A mean-zero compatibility condition is violated (k = 0 mode)."""


class DegenerateStateError(TfdwError):
    """State has no density to fit a multiplier against."""


class DescentFailureError(TfdwError):
    """Gradient phase stagnated before reaching the Newton basin."""

    def __init__(self, message, energy_trace=None):
        super().__init__(message)
        self.energy_trace = list(energy_trace) if energy_trace is not None else []

    def diagnostics(self):
        return {"energy_trace": [float(e) for e in self.energy_trace]}


class PositivityLossError(TfdwError):
    """An iterate left the positive-density branch."""


class EigensolverError(TfdwError):
    """Iterative eigensolver did not converge."""

    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = list(residual_history) if residual_history is not None else []

    def diagnostics(self):
        return {"residual_history": [float(r) for r in self.residual_history]}


class StabilityGapError(TfdwError):
    """Linearized operator gap below the usable threshold."""


class ContinuationStopError(TfdwError):
    """Parameter continuation stopped early; carries the last good value and,
    as ``partial``, the samples accepted before the stop."""

    def __init__(self, message, last_good_h, partial=None):
        super().__init__(message)
        self.last_good_h = last_good_h
        self.partial = partial

    def diagnostics(self):
        out = {"last_good_h": float(self.last_good_h)}
        if self.partial is not None:
            out["partial"] = {
                "h_values": [float(h) for h in self.partial["h_values"]],
                "gaps": [float(g) for g in self.partial["gaps"]],
            }
        return out


class RangeError(TfdwError):
    """Requested evaluation point lies outside tabulated data."""


class InfeasibleConstraintError(TfdwError):
    """Constrained solve has no solution in the attainable range."""


class LinearSolveError(TfdwError):
    """Inner symmetric-indefinite solve broke down."""

    def __init__(self, message, gap_estimate=None):
        super().__init__(message)
        self.gap_estimate = gap_estimate

    def diagnostics(self):
        return {"gap_estimate": self.gap_estimate}


class DivergenceError(TfdwError):
    """Nonlinear iteration increments grew for several consecutive steps."""


class ConfigError(TfdwError):
    """Study configuration violates the published schema."""
