"""Orthomodular property lattices, measurement propagation maps, and a
non-commutative substructural proof kernel, with parsers and a CLI."""

from omlogic.axioms import (
    SCHEMAS,
    GuardViolation,
    UnknownSchemaError,
    instantiate_axiom,
)
from omlogic.derive import (
    CrosscheckResult,
    NoAlgebraicReading,
    derive_chain,
    derive_composed,
    derive_distributivity,
    derive_measurement,
    semantic_crosscheck,
)
from omlogic.formats import (
    ParseError,
    SourceSpan,
    parse_derivation,
    parse_formula,
    parse_lattice,
    parse_map,
    parse_sequent,
    serialize,
)
from omlogic.kernel import (
    AxiomApp,
    CheckFailure,
    CheckResult,
    Derivation,
    RuleApp,
    check_derivation,
)
from omlogic.lattice import (
    FiniteOrthoLattice,
    LatticeError,
    LawCheck,
    NotOrthomodularError,
    UnknownElementError,
    VerificationReport,
    boolean,
    build_family,
    distributivity_oracle,
    hexagon,
    mo,
)
from omlogic.propagation import (
    CounterexampleWitness,
    JoinMap,
    LatticeMismatchError,
    PowersetMap,
    TransitionMapError,
    find_order_counterexample,
    identity_map,
    is_transition_map,
    kill_set,
    lift_join_map,
    measurement_map_identities,
    perfect_measurement_map,
    quantale_compose,
    quantale_report,
    quantale_union,
    sasaki_map,
    sasaki_preorder,
    sup_morphism,
    transition_oracle,
)
from omlogic.syntax import (
    Actual,
    Const,
    Constraint,
    Forall,
    Formula,
    Induced,
    Lolli,
    Measurement,
    OrthoTerm,
    Plus,
    Reachable,
    Sequent,
    Tensor,
    Var,
    ascii_formula,
    ascii_sequent,
    pretty_formula,
    pretty_sequent,
)

__version__ = "0.1.0"
