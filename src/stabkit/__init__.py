"""stabkit: empirical toolkit for tolerant stabilizer testing.

Modules
-------
gf2          symplectic F2 linear algebra (labels, subspaces, coverings)
state        dense statevector engine and dyadic distribution tables
sampling     Bell difference sampling and the tolerant tester
oracle       exhaustive stabilizer-fidelity ground truth
graphs       graph algebra and the Lovasz-theta SDP solver
uncertainty  the generalized uncertainty-relation certificate chain
additive     sumsets, doubling, nearly-linear extraction, constructive BSG
cli          batch experiment runner (the only I/O surface)

Importing stabkit pins OpenBLAS to one thread, overriding the environment:
a threaded BLAS reduction sums in another order, and reports promise the
same bytes for the same seed.  The pin must precede numpy's first import,
so it does not reach a caller who imported numpy before stabkit.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .errors import CapExceededError, CertificateError, ValidationError
from .gf2 import (
    GF2Subspace,
    SymplecticDecomposition,
    WeylLabel,
    enumerate_lagrangians,
    extend_to_lagrangian,
    isotropic_cover,
    span_and_classify,
    symplectic_form,
    symplectic_gram_schmidt,
)
from .state import (
    DyadicTable,
    PureState,
    apply_weyl,
    char_distribution,
    gamma_exact,
    generate_state,
    pad_with_zeros,
    weyl_distribution,
    weyl_expectation,
)
from .sampling import (
    BellSampler,
    TestOutcome,
    TestPlan,
    estimate_gamma,
    plan_test,
    run_tolerant_test,
)
from .oracle import (
    FidelityReport,
    lagrangian_mass,
    stabilizer_fidelity_exact,
    twirl_purity,
)
from .graphs import (
    SimpleGraph,
    ThetaResult,
    anticommutation_graph,
    compose_graphs,
    lovasz_theta,
    pauli_group_graph,
    symplectic_graph,
)
from .uncertainty import (
    HamiltonianSpec,
    UncertaintyCertificate,
    hamiltonian_norm_sq,
    psi0_lower_bound,
    uncertainty_certificate,
)
from .additive import (
    BsgResult,
    ExtractionReport,
    GF2Set,
    brute_force_subspace_cover,
    bsg_extract,
    extract_nearly_linear_set,
    find_heavy_translate,
    representation_counts,
    sumset_doubling,
)

__version__ = "0.1.0"
