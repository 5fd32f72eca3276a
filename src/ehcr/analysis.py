"""End-to-end analytic evaluation: model + policies -> rates and loads.

Prices each user through the policy search's evaluator
(:meth:`ehcr.optimizer.SuEvaluator.price_row`: sensing, probing, policy,
battery and rate) and assembles the network totals.  The CLI, the
optimizer and the Monte Carlo comparisons therefore share one evaluation
path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from .battery import BatteryChain
from .model import NetworkModel, PolicyParams
from .optimizer import SuEvaluator
from .policy import PolicyPmf, transmit_row
from .probing import EstimationStats, GainDistribution
from .rate import PerSuRate, RateBreakdown
from .sensing import SensingStats


@dataclass(frozen=True)
class SuAnalysis:
    """Everything the analytic chain says about one user at one policy."""

    index: int
    params: PolicyParams
    sensing: SensingStats
    estimation: EstimationStats
    gain: GainDistribution
    pmf: PolicyPmf               # the policy's one-cutoff row
    chain: BatteryChain
    rate: PerSuRate
    interference: float          # average load on the primary [W]
    transmission_outage: float   # Pr{silent | sensed idle}


@dataclass(frozen=True)
class NetworkAnalysis:
    """Per-user analyses plus the network rate/interference breakdown."""

    sus: Tuple[SuAnalysis, ...]
    breakdown: RateBreakdown


def analyze_su(model: NetworkModel, index: int,
               params: PolicyParams) -> SuAnalysis:
    """Run the full analytic chain for one user.

    Prices the policy as a one-cutoff row of :class:`SuEvaluator`, the
    code the policy search uses, so both give bit-identical numbers, and
    then builds the chain's transition matrix, which pricing never forms.
    """
    evaluator = SuEvaluator(model, index)
    config = evaluator.config
    row = evaluator.price_row(transmit_row(
        params.omega, [params.theta], config.probe_cells,
        config.battery_cells, evaluator.gain))
    # pricing never builds the transition matrix; the analysis reports it
    matrix = evaluator._builder.matrix(
        row.pmf.idle_law[0], evaluator.sensing.pi_hat_idle,
        evaluator.sensing.pi_hat_busy, row.pmf.moves,
        scatter=row.pmf.skeleton.scatter)
    chain = BatteryChain(matrix=matrix,
                         steady_state=row.steady_state[0],
                         avg_energy=float(row.avg_energy[0]),
                         outage=float(row.battery_outage[0]))
    rate = PerSuRate(total=float(row.rate.total[0]),
                     idle_part=float(row.rate.idle_part[0]),
                     busy_part=float(row.rate.busy_part[0]))
    return SuAnalysis(index=index, params=params, sensing=evaluator.sensing,
                      estimation=evaluator.estimation, gain=evaluator.gain,
                      pmf=row.pmf, chain=chain, rate=rate,
                      interference=float(row.interference[0]),
                      transmission_outage=float(row.transmission_outage[0]))


def analyze(model: NetworkModel,
            params_list: Sequence[PolicyParams]) -> NetworkAnalysis:
    """Evaluate every user and assemble network totals."""
    if len(params_list) != model.n_users:
        raise ValueError("one PolicyParams per user profile is required")
    sus = tuple(analyze_su(model, i, p) for i, p in enumerate(params_list))
    per_su = tuple(su.rate for su in sus)
    loads = tuple(su.interference for su in sus)
    total_load = math.fsum(loads)
    breakdown = RateBreakdown(
        per_su=per_su,
        sum_rate=math.fsum(r.total for r in per_su),
        per_su_interference=loads,
        aic_lhs=total_load,
        aic_satisfied=total_load <= model.config.interference_cap,
    )
    return NetworkAnalysis(sus=sus, breakdown=breakdown)
