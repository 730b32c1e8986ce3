"""Exception types shared across the package.

All domain errors derive from ValueError so callers can catch broadly; the
distinct classes let tests pin which failure mode fires. The CLI exits 3 on
``ParseError`` (as on an I/O error) and 2 on every other class.
"""


class UnsupportedDegree(ValueError):
    """The field degree does not admit the requested representation."""


class NoGnbFound(ValueError):
    """No Gaussian normal basis of type <= ``fields.GNB_MAX_TYPE`` exists for m."""


class InvalidParams(ValueError):
    """Normal-basis parameters fail their defining conditions."""


class ConstructionFailed(ValueError):
    """The explicit basis construction could not be carried out."""


class ExponentOutOfRange(ValueError):
    """A squaring exponent r lies outside 0..m."""


class DegreeTooSmall(ValueError):
    """The degree is too small for the operation. The inversion chain
    (``addition_chain``, ``itoh_tsujii_inverse``) needs m >= 2; at m = 2 it
    is empty and the inverse is one squaring. Inverter synthesis and the
    closed-form bounds need m >= 3, at least one block."""


class WidthMismatch(ValueError):
    """A netlist's qubit count differs from the width of the kind it is
    checked as."""


class CircuitRuleError(ValueError):
    """A gate or register breaks the circuit rules; ``index`` is the item's
    position in the order given."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


# Characters a ParseError keeps of its message: a message quotes tokens of
# the bad line, and a line may be megabytes long.
PARSE_MESSAGE_LIMIT = 200


class ParseError(ValueError):
    """A netlist file is malformed; carries the 1-based line number. A
    message longer than PARSE_MESSAGE_LIMIT characters is cut to that
    length, ending in "..."."""

    def __init__(self, message: str, line: int):
        if len(message) > PARSE_MESSAGE_LIMIT:
            message = message[: PARSE_MESSAGE_LIMIT - 3] + "..."
        super().__init__(f"line {line}: {message}")
        self.line = line
