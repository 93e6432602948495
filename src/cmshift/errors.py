"""Error types with stable machine-readable codes.

Every error carries a `code` (stable across versions, safe to dispatch on)
and an optional `field` path pointing into the offending input document.
"""


class CmshiftError(Exception):
    code = "error"

    def __init__(self, message, field=None):
        super().__init__(message)
        self.message = message
        self.field = field

    def to_json(self):
        doc = {"code": self.code, "message": self.message}
        if self.field is not None:
            doc["field"] = self.field
        return doc


class SchemaError(CmshiftError):
    """The input document does not match the expected shape."""

    code = "schema"


class ValidationError(CmshiftError):
    """The input is well-formed but violates a semantic constraint."""

    code = "validation"


class CapacityError(CmshiftError):
    """An enumeration would exceed its configured capacity."""

    code = "capacity"


class NotStronglyConnected(CmshiftError):
    """The operation needs a strongly connected support graph."""

    code = "not_strongly_connected"


class NotDrifting(CmshiftError):
    """A sequence expected to leave every cylinder failed the check."""

    code = "not_drifting"


class ConnectorNotFound(CmshiftError):
    """No connecting word exists within the allowed length."""

    code = "connector_not_found"


class NonConvergent(CmshiftError):
    """A numerical computation failed its convergence or accuracy check."""

    code = "non_convergent"
