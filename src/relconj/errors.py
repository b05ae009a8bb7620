"""Shared exception types."""


class RelconjError(Exception):
    """Base class for errors raised by this package."""


class ParseError(RelconjError):
    """Malformed presentation or profile text; carries a line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


class UnknownLetterError(RelconjError):
    """A word uses a letter that the presentation does not declare."""


class BudgetExceededError(RelconjError):
    """An enumeration grew past the configured element budget."""

    def __init__(self, what, budget):
        self.what = what
        self.budget = budget
        super().__init__("%s exceeded element budget %d" % (what, budget))


class OracleUnavailableError(RelconjError):
    """A presentation with relators lacks what a query needs: a Dehn table
    (a relator uses a parabolic letter, or the relators fail C'(1/6)), or
    the tables, conjugacy engine and ball oracle that only relator-free
    presentations get."""


class NotConjugateError(RelconjError):
    """conjugacy.search was asked for a witness between non-conjugate words."""

    def __init__(self, reason):
        self.reason = reason
        super().__init__("inputs are not conjugate (%s)" % reason)
