"""Circuit synthesis for binary-field arithmetic in redundant and normal bases.

The package lowers F_{2^m} addition, multiplication, squaring and inversion
into scheduled CNOT/Toffoli netlists for two representations with free
squaring: the redundant ghost-bit layout (available when m+1 is prime with 2
primitive) and Gaussian normal bases of type t. Classical reference
arithmetic lives in ``fields``; ``circuits`` holds the netlist IR with greedy
layering, simulation and the text format; ``multipliers`` and ``inverters``
do the synthesis; ``cli`` wires it into a command-line tool.
"""

from .circuits import (
    Circuit,
    Cnot,
    Gate,
    ResourceEstimate,
    Toffoli,
    cnot,
    emit,
    emit_lines,
    measure_stream,
    parse,
    resources,
    schedule,
    simulate,
    toffoli,
)
from .errors import (
    ConstructionFailed,
    DegreeTooSmall,
    ExponentOutOfRange,
    InvalidParams,
    NoGnbFound,
    ParseError,
    UnsupportedDegree,
    WidthMismatch,
)
from .fields import (
    FieldSpec,
    GnbParams,
    InverterPlan,
    Representation,
    addition_chain,
    check_ghost_bit_support,
    find_gnb_type,
    gbb_frobenius,
    gbb_mult,
    gnb_frobenius,
    gnb_mult,
    gnb_verify_isomorphism,
    itoh_tsujii_inverse,
    make_gnb_params,
    phi_retract,
    validate_gnb_params,
)
from .inverters import (
    BoundsReport,
    InverterStructure,
    MultiplierBlock,
    ResourceBound,
    bounds_ghost,
    bounds_gnb,
    check_bounds,
    inverter_batches,
    inverter_gates,
    inverter_structure,
    synth_inverter,
)
from .multipliers import (
    synth_add,
    synth_gbb_mult,
    synth_gbb_self_mult,
    synth_gnb_mult,
    synth_gnb_self_mult,
)

__version__ = "0.1.0"
