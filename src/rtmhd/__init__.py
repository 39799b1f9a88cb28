"""Linear Rayleigh-Taylor analysis for viscous incompressible MHD flows.

Computes growth rates of unstable normal modes over a horizontal frequency
lattice, the critical field strength and critical frequencies of horizontal
and vertical background fields, reconstructs full normal modes, and
cross-validates every rate by evolving the linearized equations in time.
"""

from .dispersion import (
    CriticalNumber,
    DispersionTable,
    critical_freq_horizontal,
    critical_freq_vertical,
    critical_number_auto,
    in_growing_domain,
    lattice_sweep,
    sup_rate,
)
from .eig import EigenPair, top_root
from .forms import FormSet, assemble_forms
from .growth import GrowthResult, growth_rate
from .modes import (
    FieldSnapshot,
    NormalMode,
    assemble_real_solution,
    build_mode,
    export_mode,
    load_mode,
)
from .profiles import (
    Bump,
    DensityProfile,
    Frequency,
    Grid1D,
    MagneticConfig,
    Orientation,
    PhysicalParams,
    ProfileSpec,
    build_profile,
    profile_metrics,
)
from .verify import (
    CrossCheck,
    RateEstimate,
    cross_check,
    eigenmode_column,
    march_norms,
    measured_rate,
    sharpness_test,
)

__version__ = "0.1.0"
