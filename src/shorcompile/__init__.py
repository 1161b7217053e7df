"""Toolkit for compiled order-finding circuits on small semiprimes.

The package covers the classical side (orders, allowed periods, the
post-processing step that turns a period into factors), truth-table
construction and compression for modular exponentiation, a reversible
gate IR, a three-stage synthesizer, a dense simulator for the register
pair, and order finding that samples its distribution in closed form.
"""

from types import ModuleType as _ModuleType

from .circuit import (
    Circuit,
    Control,
    CostReport,
    Gate,
    GateKind,
    Mismatch,
    circuit_from_json,
    circuit_to_json,
    cnot,
    cost,
    evaluate,
    not_gate,
    toffoli,
    verify,
)
from .library import (
    ERRATA,
    FIGURE_IDS,
    LIBRARY,
    PRINTED_F4_33_TABLE,
    LibraryEntry,
    find_entry,
    library_entry,
)
from .modexp import (
    CompiledFunction,
    CompileLevel,
    GDescriptor,
    GKind,
    TruthTable,
    compile_modexp,
    full_compile,
)
from .numtheory import (
    OrderRecord,
    PostProcessOutcome,
    PostProcessStatus,
    Semiprime,
    TrivialFactorError,
    continued_fraction_order,
    coprime_order_table,
    factor_semiprime,
    is_prime,
    is_prime_power,
    multiplicative_order,
    shor_postprocess,
)
from .qsim import (
    DensityMatrix,
    NoiseParams,
    OrderFindingResult,
    ProbDist,
    StateVector,
    apply_period_map,
    depolarize,
    estimate_epsilon,
    input_probabilities,
    noisy_separability,
    order_finding_run,
    qft_input,
    reduce_to_input,
    sample,
    separability_index,
    uniform_input_state,
)
from .synth import (
    AffineForm,
    BitFit,
    CascadePlan,
    LinearFit,
    SynthesisError,
    fit_linear,
    plan_cascades,
    synthesize,
)

__version__ = "0.1.0"

# every public name imported above; the submodules are bound here too
__all__ = [
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
