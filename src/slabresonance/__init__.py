"""Scattering and transmission-anomaly analysis for periodic lattice slabs.

A discrete wave model (uniform 2D square lattice coupled to a periodic defect
strip) whose scattering reduces to a finite interaction matrix through the
quasi-periodic lattice Green's function.  On top of the exact solver the
package locates non-robust guided modes (isolated real points of the complex
dispersion relation), extracts the local expansion coefficients of the
analytic eigenvalue/reflection/transmission triple, verifies the
energy-conservation coefficient relations, and evaluates closed-form
transmission-anomaly models against the exact curves.
"""

__version__ = "0.1.0"

from .errors import (
    BranchCollisionError,
    ConfigError,
    ConvergenceError,
    DispersionSignError,
    NearSingularError,
    NoPropagatingOrderError,
    PendantPoleError,
    SlabError,
    WoodAnomalyError,
)
from .lattice import (
    Defect,
    LatticeConfig,
    Pendant,
    SpectralPoint,
    greens_function,
    interaction_matrix,
    order_wavenumber,
    propagating_orders,
)
from .scattering import (
    CoefficientTriple,
    ScatteringSolution,
    coefficient_triple,
    eigen_branch,
    solve_scattering,
)
from .modes import (
    DispersionSample,
    GuidedMode,
    find_real_mode,
    omega_root,
    trace_branch,
    tune_structure,
    verify_mode,
)
from .expansion import (
    ExpansionCoefficients,
    extract_background,
    extract_coefficients,
    fit_zero_curve,
    verify_relations,
)
from .anomaly import (
    enhancement_scaling,
    fano_reduce,
    fano_shape,
    formula_case1,
    formula_case2,
    peak_dip_locations,
    phase_curve,
)
