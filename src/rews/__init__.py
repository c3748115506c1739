"""Rotor-effective wind speed estimation with convergence certification.

Building blocks:

* :mod:`rews.cp_model` -- tabulated power coefficient, its peak and kappa root
* :mod:`rews.turbine` -- drivetrain constants, nonlinearity, RK4 plant step
* :mod:`rews.estimators` -- one observer rule; I&I, P and PI are its
  parametrisations
* :mod:`rews.stability` -- forbidden circle from given sector slopes,
  the Nyquist locus on one fixed frequency grid, ``certify`` (the one
  judge of a locus), margins
* :mod:`rews.harness` -- shared plant pass, case studies, file emission
"""

from .cp_model import CpCurve, default_cp_curve, load_cp_curve, read_curve_csv
from .estimators import EstimatorConfig, Family, init_estimator
from .harness import (Scenario, SimTrace, classify_trace, make_step_wind_scenario,
                      run_case_studies, run_scenario, run_shared_plant)
from .stability import (CircleSpec, certify, circle_from_gains,
                        frequency_response, max_stable_beta, max_stable_delay)
from .turbine import TurbineParams, default_turbine_params, phi, rk4_plant_step

__version__ = "0.1.0"
