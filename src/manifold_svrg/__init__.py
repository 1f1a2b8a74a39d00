"""Vector-transport-free stochastic optimization on Stiefel and Grassmann
manifolds, with a seven-retraction benchmark harness."""

__version__ = "0.1.0"

from .errors import (InvalidObservation, ManifoldSvrgError, NoConvergentTau,
                     NoFeasibleC, NonFiniteInput, NonFiniteValue, NotSPD,
                     RankDeficient, SingularStep, TooLarge, TooManySamples)
from .linalg import polar_project, qr_positive
from .manifold import (StiefelPoint, TangentSpace, d_rho_array, feasibility_error,
                       inner_x, nu_of_rho, tangent_project_array)
from .retractions import RetractionKind, retract_array
from .problems import (McInstance, PcaInstance, ProblemConstants, mc_generate,
                       mc_load_observations, mc_save_observations, pca_generate,
                       pca_load)
from .optimizers import (BB, Fixed, OutputMode, RunTrace, Schedule, SvrgConfig,
                         Theorem1, bb_step, loj_ratio_probe,
                         recursion_lemma_check, run_rgd, run_s_sgd, run_s_svrg,
                         select_output, theorem1_schedule, warm_start)
from .harness import (ExperimentSpec, SummaryRow, emit_table, grid_tune,
                      run_experiment)
