"""Minimum-storage cooperative regenerating code for n = 2k nodes.

Exact-arithmetic implementation over GF(2^m): encoding, MDS collection,
two-phase cooperative repair of multi-node failures with optimal bandwidth,
and a deterministic storage-cluster simulator with a CLI.
"""

from .galois import DivisionByZero, FieldElement, FieldMismatch, FieldSpec
from .linalg import (CauchySpec, DimensionMismatch, DuplicateGenerators,
                     Matrix, SingularMatrix, TooLarge, cauchy, cauchy_inverse)
from .params import (CodeParams, DegenerateConstants, GenerationExhausted,
                     Violation, generate, solve_dual_constants, validate)
from .codec import (DuplicateNodes, NodeContent, ParityBlock, SourceBlock, collect,
                    dual_encode, encode)
from .repair import (BandwidthReport, FailurePattern, InvalidRegime, Message,
                     MissingMessage, NonsingularityFailure, RepairPlan,
                     UnsupportedPattern, apply_repair, optimal_bandwidth,
                     phase1_symbol, plan_repair)
from .cluster import (AlreadyFailed, Cluster, NotEnoughLiveNodes, Scenario,
                      TooManyFailures, VerificationFailure, run_scenario)

__version__ = "0.1.0"
