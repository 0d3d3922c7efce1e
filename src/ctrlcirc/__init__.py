"""Boolean circuits with explicit, composable control flow."""

from .errors import CircuitError, CompositionError, StructureError, ValidationError
from .model import (
    BOOL,
    CTRL,
    Circuit,
    CircuitClass,
    Flow,
    Interface,
    TypeTag,
    circuit_violations,
    classify,
    interface,
    is_sound,
    mk_primitive,
    mk_trivial,
    relabel,
    unit_circuit,
    validate_circuit,
)
from .morphisms import (
    Adjoint,
    CircuitMorphism,
    check_morphism,
    compose_morphisms,
    identity_morphism,
    in_adjoint,
    is_mono,
    out_adjoint,
    validate_morphism,
)
from .colimits import (
    Cospan,
    CoproductResult,
    Span,
    copair,
    coproduct,
    invert_iso,
    is_isomorphic,
    pushout,
)
from .operators import (
    BranchResult,
    IterationResult,
    IterationWiring,
    Pairing,
    SequenceResult,
    auto_pairing,
    branch,
    iterate_head,
    iterate_tail,
    parallel,
    sequence,
    sequence_span,
    span_from_pairing,
)
from .dynamics import (
    ExecConfig,
    Outcome,
    SplitMix64,
    State,
    Trace,
    TraceStep,
    Value,
    WriteConflictError,
    enabled_units,
    initial_state,
    ready_units,
    reduce_unit,
    run,
    step,
    tally_runs,
)

__all__ = [name for name in dir() if not name.startswith("_")]
