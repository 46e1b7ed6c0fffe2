"""Exception types shared across the package."""


class TplpError(Exception):
    """Base class for all errors raised by this package.

    exit_code is the command-line exit status: 2 for input errors, 3 for
    resource limits.
    """

    exit_code = 2


class NonNormalConstraint(TplpError):
    """A temporal constraint still mentions a variable other than its principal one."""


class UniverseEmpty(TplpError):
    """A clause has object variables but the program declares no constants."""


class BaseTooLarge(TplpError):
    """The program's Herbrand base has more atoms than the configured cap.
    Query atoms outside it do not count: each query formula is answered per
    component of the program that it touches."""

    exit_code = 3

    def __init__(self, size: int, cap: int):
        super().__init__(
            f"Herbrand base has {size} atoms, above the cap of {cap}; "
            f"try relevant grounding or raise the max-world-atoms limit"
        )
        self.size = size
        self.cap = cap


class CalendarTooLarge(TplpError):
    """A calendar range spans more points than the cap; no point is built."""

    exit_code = 3


class GroundingTooLarge(TplpError):
    """Grounding would make more than its cap allows, so none is made: the
    companion temporal variables of an annotation or clause have more
    groundings over the calendar than their cap, or the program has more
    ground clause instances than theirs."""

    exit_code = 3


class AtomNotInBase(TplpError):
    """A formula mentions a ground atom outside the Herbrand base in use."""


class TimePointOutsideCalendar(TplpError):
    """A time point falls outside the program calendar."""


class InvalidAnnotation(TplpError):
    """An annotation fails validation.  diagnostics holds its errors, in the
    order validation reports them; the message is the first."""

    def __init__(self, diagnostics):
        super().__init__(str(diagnostics[0]))
        self.diagnostics = diagnostics


class InconsistentProgram(TplpError):
    """The operation requires a consistent program but none of its branches is feasible."""


class NonConvergence(TplpError):
    """The entropy maximizer hit its iteration cap before converging."""

    exit_code = 3


class LPNumericalFailure(TplpError):
    """The simplex could not decide an LP, in exact or float mode: it hit
    its pivot cap or phase one came out unbounded; or, in float mode only,
    the phase-one residual fell inside the ambiguous tolerance band."""


class MissingTimeSlice(TplpError):
    """An evolution profile lacks an annotation for some formula/time pair."""


class UnknownFormulaSlot(TplpError):
    """An evolution profile annotates a formula the skeleton does not have."""
