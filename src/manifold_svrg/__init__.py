"""Vector-transport-free stochastic optimization on Stiefel and Grassmann
manifolds, with a seven-retraction benchmark harness.

The independent references the tests check the package against
(Gram-Schmidt QR, a Taylor expm, Richardson differences, brute-force
expectations) live with the tests, not here."""

__version__ = "0.1.0"

from .errors import (InvalidObservation, ManifoldSvrgError, NoConvergentTau,
                     NoFeasibleC, NonFiniteInput, NonFiniteValue, RankDeficient,
                     SingularStep, TooManySamples)
from .linalg import polar_project, qr_positive
from .manifold import StiefelPoint, d_rho_array, feasibility_error, nu_of_rho
from .retractions import RetractionKind, retract_array
from .problems import (McInstance, PcaInstance, ProblemConstants, mc_generate,
                       mc_load_observations, mc_save_observations, pca_generate,
                       pca_load)
from .optimizers import (BB, Fixed, RunTrace, Schedule, SvrgConfig, Theorem1,
                         bb_step, run_rgd, run_s_sgd, run_s_svrg, theorem1_schedule,
                         warm_start)
from .harness import (ExperimentSpec, SummaryRow, emit_table, grid_tune,
                      run_experiment)
