"""Dense state-vector simulator of a sealed-bid quantum auction run by
discrete adiabatic search, with a corrupt-auctioneer attack suite, bidder
countermeasures, and a gate-level circuit layer verified against the dense
constructions."""

from .core import (
    ContractViolation,
    Povm,
    StateVector,
    eig_hermitian,
    is_hermitian,
    measurement_probabilities,
    phase_invariant_distance,
)
from .protocol import (
    AdiabaticSchedule,
    AuctionConfig,
    BidSpec,
    EigenTracks,
    PayoffTable,
    TieError,
    Trajectory,
    auto_delta,
    bidding_operator,
    build_first_price_table,
    default_schedule,
    eigenvalue_tracks,
    joint_bidding_operator,
    pauli_z_expansion,
    plausible_allocations,
    run_adiabatic,
)
from .circuits import (
    Circuit,
    Gate,
    VerificationReport,
    build_bidder_circuit,
    build_collusion_circuit,
    build_D_circuit,
    build_P_circuit,
    build_zz_exponential,
    circuit_to_matrix,
    parse_circuit,
    verify_circuit,
)
from .adversary import (
    locking_unitaries,
    min_error_povm,
    povm_optimality_check,
    probe_attack_basis,
    probe_attack_povm,
    run_collusion_defense,
    spurious_table,
)

__version__ = "0.1.0"
