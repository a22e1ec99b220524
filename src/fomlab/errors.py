"""Exception types shared across the package."""


class FomlabError(Exception):
    """Base class for all fomlab errors."""


class MalformedEvents(FomlabError):
    """Event stream is missing or duplicating arrivals/deadlines."""


class EdgeViolatesModel(FomlabError):
    """An edge endpoint arrives after the other endpoint's deadline."""


class SelfLoop(FomlabError):
    pass


class DuplicateEdge(FomlabError):
    pass


class IndexOutOfRange(FomlabError):
    pass


class RankMissing(FomlabError):
    pass


class NotActive(FomlabError):
    pass


class NotBipartite(FomlabError):
    pass


class TooLarge(FomlabError):
    """A requested computation exceeds its size budget."""


class ChargingInvalid(FomlabError):
    """Charging function violates its required properties."""


class OutOfDomain(FomlabError):
    pass


class ParamsInvalid(FomlabError):
    pass


class InvariantViolated(FomlabError):
    """A paper invariant failed to hold; this signals a bug, not bad input."""
