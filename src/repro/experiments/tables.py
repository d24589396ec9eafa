"""Workloads reproducing the paper's tables (§6).

* Table 2 — network statistics (delegated to the datasets module).
* Table 5 — utilities learned from (synthetic) Last.fm listening logs.
* Table 6 — adoption count vs social welfare for Round-robin, Snake and
  SeqGRD-NM under the real and the synthetic (Table 4) configurations.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.experiments.config import ExperimentScale, get_scale
from repro.experiments.figures import _measure
from repro.experiments.networks import benchmark_network, table2_statistics
from repro.utility.configs import (
    LASTFM_PROBABILITIES,
    LASTFM_UTILITIES,
    blocking_config,
    lastfm_config,
)
from repro.utility.learning import learn_utilities, synthetic_lastfm_logs
from repro.utils.rng import ensure_rng


# ----------------------------------------------------------------------
# Table 2 — network statistics
# ----------------------------------------------------------------------
def table2(scale=None) -> List[Dict[str, object]]:
    """Statistics of the synthetic stand-in networks (paper Table 2)."""
    return table2_statistics(get_scale(scale))


# ----------------------------------------------------------------------
# Table 5 — learned utilities
# ----------------------------------------------------------------------
def table5(n_selections: int = 50_000, rng=None) -> List[Dict[str, object]]:
    """Learned genre utilities vs the published Table 5 values.

    Synthetic listening logs are generated with the published adoption
    probabilities, the discrete-choice learner of §6.4.1 is run on them, and
    each learned utility is reported next to the published one.
    """
    rng = ensure_rng(rng if rng is not None else 2020)
    logs = synthetic_lastfm_logs(n_selections, rng=rng)
    learned = learn_utilities(logs, items=list(LASTFM_UTILITIES))
    rows = []
    for item in LASTFM_UTILITIES:
        rows.append({
            "item": item,
            "published_probability": LASTFM_PROBABILITIES[item],
            "published_utility": LASTFM_UTILITIES[item],
            "learned_utility": round(learned.get(item, float("nan")), 2),
        })
    return rows


# ----------------------------------------------------------------------
# Table 6 — adoption counts vs welfare
# ----------------------------------------------------------------------
def table6(scale=None,
           networks: Sequence[str] = ("nethept", "orkut"),
           budgets: Optional[Sequence[int]] = None,
           algorithms: Sequence[str] = ("Round-robin", "Snake", "SeqGRD-NM")
           ) -> List[Dict[str, object]]:
    """Adoption count of every item and overall welfare (paper Table 6).

    Two utility configurations are measured — the real Last.fm utilities
    (pure competition) and the synthetic Table 4 configuration (mixed
    partial/pure competition) — for Round-robin, Snake and SeqGRD-NM, with
    two uniform budgets.  Each row carries the fractional change of the
    item's adoptions / welfare relative to Round-robin, matching how the
    paper annotates the table.
    """
    scale = get_scale(scale)
    budgets = list(budgets or (min(scale.small_budget_sweep),
                               max(scale.small_budget_sweep)))
    configurations = (("real", lastfm_config()),
                      ("synthetic", blocking_config()))
    rows: List[Dict[str, object]] = []
    for network in networks:
        graph = benchmark_network(network, scale)
        for budget in budgets:
            for config_name, model in configurations:
                budget_map = {name: budget for name in model.items}
                records = {}
                for algorithm in algorithms:
                    records[algorithm] = _measure(
                        algorithm, graph, model, scale,
                        configuration=config_name, budgets=budget_map,
                        rng=scale.seed + budget)
                reference = records.get("Round-robin")
                for algorithm, record in records.items():
                    row: Dict[str, object] = {
                        "network": network,
                        "budget": budget,
                        "configuration": config_name,
                        "algorithm": algorithm,
                        "welfare": round(record.welfare, 2),
                        "total_adoptions": round(
                            sum(record.adoption_counts.values()), 1),
                    }
                    for item, count in record.adoption_counts.items():
                        row[f"adopt[{item}]"] = round(count, 1)
                    if reference is not None and algorithm != "Round-robin":
                        ref_welfare = reference.welfare or 1.0
                        row["welfare_change"] = round(
                            (record.welfare - reference.welfare)
                            / abs(ref_welfare), 3)
                        for item, count in record.adoption_counts.items():
                            ref_count = reference.adoption_counts.get(item, 0.0)
                            if ref_count > 0:
                                row[f"change[{item}]"] = round(
                                    (count - ref_count) / ref_count, 3)
                    rows.append(row)
    return rows


__all__ = ["table2", "table5", "table6"]
