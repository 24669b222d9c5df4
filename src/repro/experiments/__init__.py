"""Experiment harness: presets, paired runner, and figure/table builders."""

from repro._lazy import lazy_exports

__all__ = [
    "FigureData",
    "FigureSeries",
    "build_figure",
    "fig3",
    "fig4",
    "format_figure_report",
    "FIGURE_ALGORITHMS",
    "TABLE2_DATASETS",
    "ExperimentPreset",
    "fig3_preset",
    "fig4_preset",
    "table2_preset",
    "ExperimentOutput",
    "build_preset_dataset",
    "build_preset_model",
    "monotone_envelope",
    "run_experiment",
    "Table2Row",
    "format_table2",
    "table2",
    "table2_row",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.experiments.figures": (
        "FigureData", "FigureSeries", "build_figure", "fig3", "fig4",
        "format_figure_report",
    ),
    "repro.experiments.presets": (
        "FIGURE_ALGORITHMS", "TABLE2_DATASETS", "ExperimentPreset",
        "fig3_preset", "fig4_preset", "table2_preset",
    ),
    "repro.experiments.runner": (
        "ExperimentOutput", "build_preset_dataset", "build_preset_model",
        "monotone_envelope", "run_experiment",
    ),
    "repro.experiments.tables": (
        "Table2Row", "format_table2", "table2", "table2_row",
    ),
})
