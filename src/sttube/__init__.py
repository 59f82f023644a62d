"""Spatiotemporal tube synthesis, certification, and tube-tracking control
for multi-agent temporal reach-avoid-stay tasks.

The pipeline: a scenario (arena, horizon, per-agent start/goal boxes,
time-varying unsafe boxes) is sampled into a finite constraint system,
solved as a linear program over polynomial tube-face coefficients under a
searched assignment of separation witnesses, certified against the
original uncountable constraint system via Lipschitz arguments, and then
tracked in closed loop by an approximation-free decentralized barrier
controller.
"""

from importlib.resources import files as _files

__version__ = "0.1.0"

from .scenario import (  # noqa: F401
    AgentTask,
    Box,
    Interval,
    ScenarioSpec,
    ScenarioError,
    UnsafeRegion,
    load_scenario,
    save_scenario,
    unsafe_box_at,
)
from .tube import (  # noqa: F401
    TubeFace,
    TubeSet,
    analytic_slope_bound,
    load_tubes,
    save_tubes,
    slope_bounds,
)
from .sampling import SampleSet, sample_time_grid, sample_unsafe, verify_cover  # noqa: F401
from .lp import LpProblem, LpSolution, solve_lp  # noqa: F401
from .synth import (  # noqa: F401
    DisjunctAssignment,
    SynthesisCertificate,
    SynthesisFailure,
    build_sop,
    certify,
    refine_assignment,
    seed_assignment,
    solve_sop,
    synthesize,
    validate_tubes,
)
from .lipschitz import (  # noqa: F401
    SlopeSampleConfig,
    WeibullFit,
    estimate_L,
    fit_reverse_weibull,
    max_slope_sample,
)
from .control import ControllerConfig, Funnel, control_input  # noqa: F401
from .plant import Disturbance, PlantModel, dynamics, make_plant  # noqa: F401
from .sim import Trajectory, run_closed_loop  # noqa: F401
from .verify import VerificationReport, check_ca, check_containment, check_tras, verify_run  # noqa: F401


def data_path(name: str):
    """Path to a packaged scenario or tube file (e.g. "robots.scenario")."""
    return _files("sttube").joinpath("data", name)
