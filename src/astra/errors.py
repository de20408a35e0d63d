"""Exception types shared across the library."""


class AstraError(Exception):
    """Base class for every error raised by this library."""


class SystemValidationError(AstraError):
    """A transition-system description violates a structural invariant."""


class EmptyAlphabet(SystemValidationError):
    """States, controls, or disturbances were declared empty."""


class UndeclaredSymbol(SystemValidationError):
    """A transition, observation, or valuation references an unknown symbol."""


class BlockedState(SystemValidationError):
    """Some (state, control, disturbance) triple has no successor."""

    def __init__(self, state, control, disturbance):
        self.state = state
        self.control = control
        self.disturbance = disturbance
        super().__init__(
            f"state {state!r} has no successor under control {control!r} "
            f"and disturbance {disturbance!r}"
        )


class InvalidDuration(SystemValidationError):
    """An action duration other than 1 was supplied."""


class FormulaSyntaxError(AstraError):
    """The formula text does not parse."""

    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class UnknownProposition(AstraError):
    """A formula mentions a proposition outside the declared set."""

    def __init__(self, name, position=None):
        self.name = name
        self.position = position
        where = f" (at position {position})" if position is not None else ""
        super().__init__(f"unknown proposition {name!r}{where}")


class FormulaTooDeep(AstraError):
    """A formula nests past the interpreter's recursion limit in
    :func:`astra.ltl.eval_lasso`, the recursive reference evaluator."""


class AutomatonError(AstraError):
    """An automaton description is malformed (bad guard, dangling state, ...)."""


class ExplosionGuard(AstraError):
    """An enumeration exceeded its configured cap."""


class PlanValidationError(AstraError):
    """A reactive plan violates a structural invariant."""


class UniquenessViolated(PlanValidationError):
    """Two successor plan states of one rule share a world state."""


class VerificationFailure(AstraError):
    """Internal guard: a synthesized plan failed independent verification."""

