"""saddlekit: saddle points of prescribed Morse index via level-set min-max.

The toolkit brackets the critical value by bisection on a min-max problem
over affine slices of level sets, certifies widest pairs through the
anti-parallel-gradient condition, and refines to the critical value with a
superlinearly convergent local method that tracks the negative eigenspace.
"""

from .bisection import BisectionState, bisection_solve, default_bracket, stationarity_diagnostic
from .errors import (
    BadSignature,
    ConfigError,
    DomainViolation,
    InsufficientData,
    InvalidBracket,
    LowerBoundViolated,
    NonFiniteValue,
    NonUniqueWarning,
    NotConcave,
    NotSymmetric,
    RankDeficient,
    SaddleKitError,
    SingularSimplex,
    SliceEmpty,
    TraceParseError,
    Unbounded,
    ZeroGradient,
)
from .geometry import (
    AffineSubspace,
    KKTCertificate,
    OptimizingTriple,
    TrustRegion,
    brute_force_diameter,
    closest_point_on_slice,
    inner_max_diameter,
    isosceles_min_segment,
    isosceles_segment_length,
    opposite_gradient_residual,
    quadratic_minmax_exact,
)
from .linalg import Frame, complete_frame, orthonormalize, qr_decompose, sym_eigen
from .local import (
    LocalResult,
    LocalState,
    RateEstimate,
    estimate_negative_eigenspace,
    fast_local_solve,
    measure_convergence_rate,
    orthogonal_space_lower_bound,
)
from .objectives import (
    ObjectiveFunction,
    TestProblem,
    cubic_saddle_problem,
    failure_3d_problem,
    fd_gradient,
    fd_hessian,
    four_lines_function,
    make_diagonal_quadratic,
    make_perturbed_quadratic,
    make_quadratic,
    problem_from_name,
)
from .outer import outer_min_subspace
from .quadfit import (
    QuadraticModel,
    SimplexData,
    concave_upper_bound,
    fit_quadratic_rectangular,
    fit_quadratic_square,
)
from .trace import SolverTrace, TraceRecord

__version__ = "0.1.0"
