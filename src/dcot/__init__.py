"""Double-core tensor factorization and completion.

Fits ``(G + H) x_1 U_1 ... x_N U_N`` to an incompletely observed N-way
array, where ``H`` carries subject-group structure (tied slices) and the
fitting loss pools information across cells through multiplicative
per-mode similarity weights.  The solver is a linearized multi-block
ADMM with per-block proximal steps.
"""

from .losses import (
    DomainError,
    LossFamily,
    ObservationSet,
    initial_fill,
    loss_curvature,
    loss_curvature_min,
    loss_gradient,
    loss_lipschitz,
    loss_value,
)
from .model import (
    DcotModel,
    InitStrategy,
    SliceGroup,
    SubjectPartition,
    init_factors,
    initial_model,
    project_core,
    reconstruct,
    tie_heterogeneous_core,
)
from .prox import Penalty, penalty_value, prox_apply
from .similarity import (
    SimilarityModel,
    label_consistency,
    mode_similarity,
    smoothing_moments,
)
from .solver import (
    BlockPenalties,
    ConvergenceTrace,
    SolverAbort,
    SolverConfig,
    SolverResult,
    core_gradient,
    estimate_moduli,
    factor_gradient,
    lagrangian_value,
    solve,
    update_cores,
    update_factor,
    update_z,
)
from .evaluate import (
    GridSearchResult,
    SplitSpec,
    SynthSpec,
    complement_set,
    grid_search,
    holdout_split,
    lambda_grid,
    rmse,
    synthesize,
)
from .tensor import (
    frob_inner,
    frob_norm,
    matricize,
    multilinear_product,
    n_mode_product,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
