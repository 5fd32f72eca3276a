"""Energy-harvesting cognitive-radio uplink: analytics, search, simulation.

Secondary users harvest Poisson-distributed energy packets into a
finite battery in every frame, probe the uplink channel when the band is
sensed idle, and spend battery cells on data according to a
fractional-spend / gain-cutoff policy.  The package
prices that loop in closed form (sensing error rates, channel-estimate
statistics, battery steady state, achievable-rate lower bound, average
primary-side interference), searches the policy plane under an
interference cap, and cross-checks everything against a slot-by-slot
Monte Carlo.
"""

__version__ = "0.1.0"

from .analysis import NetworkAnalysis, SuAnalysis, analyze, analyze_su
from .battery import (BatteryChain, ChainNotErgodicError, TransitionBuilder,
                      avg_energy, battery_outage, steady_state)
from .model import (NetworkModel, PolicyParams, SuProfile, SystemConfig,
                    ValidationError, harvest_pmf, validate)
from .optimizer import (OptimizationResult, SearchConfig, SuEvaluator,
                        SuPoint, objective_surface, solve_p1)
from .policy import PolicyPmf, transmit_row, transmit_units
from .probing import (EstimationStats, GainDistribution,
                      estimator_variances, gain_cdf)
from .rate import (PerSuRate, RateBreakdown, antiderivative_m,
                   transmission_outage)
from .sensing import (SensingStats, false_alarm_at_target_pd,
                      joint_sensing_stats, sensing_stats)
from .sim import (CompareCheck, CompareReport, SimTrace, SuTrace, compare,
                  simulate)

__all__ = [
    "__version__",
    "BatteryChain", "ChainNotErgodicError", "CompareCheck", "CompareReport",
    "EstimationStats", "GainDistribution", "NetworkAnalysis", "NetworkModel",
    "OptimizationResult", "PerSuRate", "PolicyParams", "PolicyPmf",
    "RateBreakdown", "SearchConfig", "SensingStats", "SimTrace",
    "SuAnalysis", "SuEvaluator", "SuPoint", "SuProfile", "SuTrace",
    "SystemConfig", "TransitionBuilder", "ValidationError",
    "analyze", "analyze_su",
    "antiderivative_m", "avg_energy", "battery_outage", "compare",
    "estimator_variances",
    "false_alarm_at_target_pd", "gain_cdf", "harvest_pmf",
    "joint_sensing_stats", "objective_surface",
    "sensing_stats", "simulate", "solve_p1", "steady_state",
    "transmission_outage", "transmit_row", "transmit_units", "validate",
]
