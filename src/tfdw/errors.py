"""Exception types raised by the solver stack.

Structural errors (grid mismatches, bad descriptors) are distinguished from
numerical failures (lost positivity, stalled descent, broken continuation) so
callers can tell a misuse from a model leaving its valid regime.
"""


class TfdwError(Exception):
    """Base class for all package errors.  Keyword arguments are JSON-ready
    partial diagnostics, kept as attributes of the same name."""

    def __init__(self, *args, **diagnostics):
        super().__init__(*args)
        self.__dict__.update(diagnostics)
        self._diagnostic_names = tuple(diagnostics)

    def diagnostics(self):
        """The partial diagnostics the error carries, by name."""
        return {name: getattr(self, name) for name in self._diagnostic_names}


class GridMismatchError(TfdwError):
    """Operands live on different grids."""


class StructuralError(TfdwError):
    """Inconsistent metadata (shapes, descriptors, scaling parameters)."""


class SolvabilityError(TfdwError):
    """A mean-zero compatibility condition is violated (k = 0 mode)."""


class DegenerateStateError(TfdwError):
    """State has no density to fit a multiplier against."""


class DescentFailureError(TfdwError):
    """Gradient phase stagnated before reaching the Newton basin (carries
    ``energy_trace``)."""


class PositivityLossError(TfdwError):
    """An iterate left the positive-density branch."""


class EigensolverError(TfdwError):
    """Iterative eigensolver did not converge (carries ``residual_history``)."""


class StabilityGapError(TfdwError):
    """Linearized operator gap below the usable threshold."""


class ContinuationStopError(TfdwError):
    """Parameter continuation stopped early; carries the last good value,
    as ``partial`` the samples accepted before the stop, and any further
    JSON-ready diagnostics by keyword."""

    def __init__(self, message, last_good_h, partial=None, **diagnostics):
        super().__init__(message, **diagnostics)
        self.last_good_h = last_good_h
        self.partial = partial

    def diagnostics(self):
        out = {"last_good_h": float(self.last_good_h), **super().diagnostics()}
        if self.partial is not None:
            out["partial"] = {
                "h_values": [float(h) for h in self.partial["h_values"]],
                "gaps": [None if g is None else float(g) for g in self.partial["gaps"]],
            }
        return out


class SpinSymmetryError(TfdwError):
    """A state that must be invariant under the spin swap is not (carries
    its max |nu_+ - nu_-| as ``asymmetry``)."""


class RangeError(TfdwError):
    """Requested evaluation point lies outside tabulated data."""


class InfeasibleConstraintError(TfdwError):
    """Constrained solve has no solution in the attainable range."""


class LinearSolveError(TfdwError):
    """Inner symmetric-indefinite solve broke down (carries ``gap_estimate``)."""


class DivergenceError(TfdwError):
    """Nonlinear iteration increments grew for several consecutive steps."""


class ConfigError(TfdwError):
    """Study configuration violates the published schema."""
