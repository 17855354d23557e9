"""Two-kaon quantum dynamics from eight-vertex braid matrices."""

__version__ = "0.1.0"

from .braid import (  # noqa: F401
    BraidSpec,
    SpectralPoint,
    braid_matrix,
    check_braid_relation,
    check_qybe,
    rho_check,
    unitary_braid,
    unitary_r,
    yang_baxterize,
)
from .dynamics import (  # noqa: F401
    evolve_state,
    hamiltonian_at,
    hamiltonian_generator,
    propagator,
    r_vs_hamiltonian_consistency,
    schrodinger_residual,
)
from .errors import (  # noqa: F401
    DimensionError,
    DomainError,
    KaonbraidError,
    ValidationError,
)
from .linalg import (  # noqa: F401
    is_hermitian,
    is_unitary,
    tensor_product,
)
from .oscillation import (  # noqa: F401
    FlavorAmplitudes,
    KaonParams,
    evolve_k,
    evolve_kbar,
    oscillation_curve,
    transition_probability,
)
from .states import (  # noqa: F401
    TwoKaonState,
    apply_rbar,
    bell_quartet,
    braid_action_images,
    canonical_basis,
    concurrence,
    correlation,
    cp_op,
    cp_s_eigentable,
    is_separable,
    lift_two_kaon,
    strangeness_op,
)
