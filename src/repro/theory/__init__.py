"""Theory artifacts: Assumption constants, Theorem 1/2 bounds, Table 1, rate fits."""

from repro._lazy import lazy_exports

__all__ = [
    "HierMinimaxBoundInputs",
    "Theorem1Bound",
    "Theorem2Bound",
    "lemma1_divergence_bound",
    "lemma1_step_condition",
    "lemma2_divergence_bound",
    "lemma2_step_condition",
    "theorem1_bound",
    "theorem2_bound",
    "ProblemConstants",
    "estimate_problem_constants",
    "logistic_smoothness_bound",
    "DivergenceMeasurement",
    "measure_model_divergence",
    "duality_gap",
    "edge_losses",
    "max_over_simplex",
    "weighted_min_loss",
    "moreau_envelope",
    "moreau_gradient_norm",
    "phi_value",
    "PowerLawFit",
    "fit_power_law",
    "rate_consistency",
    "Table1Row",
    "evaluate_row",
    "format_table1",
    "table1_rows",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.theory.bounds": (
        "HierMinimaxBoundInputs", "Theorem1Bound", "Theorem2Bound",
        "lemma1_divergence_bound", "lemma1_step_condition",
        "lemma2_divergence_bound", "lemma2_step_condition", "theorem1_bound",
        "theorem2_bound",
    ),
    "repro.theory.constants": (
        "ProblemConstants", "estimate_problem_constants",
        "logistic_smoothness_bound",
    ),
    "repro.theory.divergence": (
        "DivergenceMeasurement", "measure_model_divergence",
    ),
    "repro.theory.duality": (
        "duality_gap", "edge_losses", "max_over_simplex", "weighted_min_loss",
    ),
    "repro.theory.moreau": (
        "moreau_envelope", "moreau_gradient_norm", "phi_value",
    ),
    "repro.theory.rates": ("PowerLawFit", "fit_power_law", "rate_consistency"),
    "repro.theory.table1": (
        "Table1Row", "evaluate_row", "format_table1", "table1_rows",
    ),
})
