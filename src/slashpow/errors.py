"""Exception hierarchy shared by all modules."""


class SlashpowError(Exception):
    """Base class for library errors."""


class SchemaError(SlashpowError):
    """Malformed serialized input (JSON schema violation or bad value)."""


class InputError(SlashpowError):
    """A precondition on user-supplied data does not hold."""


class DisconnectedGraph(InputError):
    """Operation requires a connected graph."""


class NotGeodesicStGraph(InputError):
    """The s-t paths of the graph do not all have the same metric length."""


class NotNormalized(InputError):
    """Operation requires a normalized geodesic s-t graph (s-t length 1)."""


class InvalidPath(InputError):
    """A vertex sequence is not a path (or cycle) of the graph."""


class NoBalancedSplit(InputError):
    """A cycle has no vertex splitting it into two arcs of equal metric length."""


class NoCycle(InputError):
    """The graph is a path; there is no cycle to work with."""


class NotLaakso(InputError):
    """The graph does not have the stem/branch/branch/tail shape."""


class EdgeSizeViolation(InputError):
    """A branch edge exceeds a quarter of the cycle length (or the cycle is too long)."""


class NotExpansive(InputError):
    """A map into a tree contracts some vertex pair."""


class DegenerateMetric(InputError):
    """Two distinct points are at distance zero."""


class SelectorError(InputError):
    """A cycle selector returned an ineligible edge."""


class CapExceeded(SlashpowError):
    """A configured size or enumeration cap would be exceeded."""


class WitnessNotFound(SlashpowError):
    """A lower-bound witness search came back empty: the certified bound failed."""


class LPError(SlashpowError):
    """The exact LP solver hit an infeasible or unbounded instance."""
