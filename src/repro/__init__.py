"""repro — HierMinimax: distributed minimax fair optimization over hierarchical networks.

A from-scratch reproduction of Xu, Wang, Liang, Boudreau & Sokun, *Distributed
Minimax Fair Optimization over Hierarchical Networks* (ICPP '24): the HierMinimax
algorithm, the four baselines it is evaluated against, the simulation and ML
substrates they run on, and the harness regenerating every table and figure of the
paper's evaluation.

Quickstart
----------
>>> from repro import HierMinimax, make_federated_dataset, make_model_factory
>>> data = make_federated_dataset("emnist_digits", scale="tiny", seed=0)
>>> model = make_model_factory("logistic", data.input_dim, data.num_classes)
>>> algo = HierMinimax(data, model, tau1=2, tau2=2, m_edges=5, seed=0)
>>> result = algo.run(rounds=20, eval_every=5)
>>> 0.0 <= result.history.final().record.worst_accuracy <= 1.0
True

See DESIGN.md for the system inventory and EXPERIMENTS.md for the paper-vs-measured
record of every experiment.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "ALGORITHMS",
    "DRFA",
    "FedAvg",
    "HierFAVG",
    "StochasticAFL",
    "make_algorithm",
    "FederatedAlgorithm",
    "HierMinimax",
    "RunResult",
    "SemiAsyncHierMinimax",
    "TradeoffSchedule",
    "tradeoff_schedule",
    "DATASET_NAMES",
    "Dataset",
    "FederatedDataset",
    "make_federated_dataset",
    "PopulationSpec",
    "VirtualPopulation",
    "EagerPopulation",
    "ClientStateStore",
    "as_population",
    "IdentityCompressor",
    "QSGDQuantizer",
    "TopKSparsifier",
    "AttackPlan",
    "CoordinateMedian",
    "DefensePolicy",
    "Krum",
    "NormClip",
    "RobustAggregator",
    "TrimmedMean",
    "WeightedMean",
    "apply_label_flip",
    "resolve_defense",
    "CheckpointError",
    "FaultInjector",
    "FaultPlan",
    "RetryPolicy",
    "load_checkpoint_file",
    "save_checkpoint_file",
    "ChaosCrash",
    "ChaosInjector",
    "ChaosPlan",
    "chaos",
    "InvariantMonitor",
    "InvariantViolationError",
    "Violation",
    "ChurnPlan",
    "MembershipManager",
    "resolve_membership",
    "EvaluationRecord",
    "TrainingHistory",
    "evaluate_record",
    "HierarchyTree",
    "MultiLevelHierMinimax",
    "MetricsRegistry",
    "NullTracer",
    "Tracer",
    "TraceWriter",
    "analyze_trace",
    "format_trace_report",
    "NeuralNetwork",
    "logistic_regression",
    "make_model_factory",
    "mlp",
    "HeterogeneousCostModel",
    "NullCostModel",
    "SimTimer",
    "make_cost_model",
    "CommunicationTracker",
    "HierarchicalTopology",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.baselines": (
        "ALGORITHMS", "DRFA", "FedAvg", "HierFAVG", "StochasticAFL",
        "make_algorithm",
    ),
    "repro.chaos": ("ChaosCrash", "ChaosInjector", "ChaosPlan", "chaos"),
    "repro.core": (
        "FederatedAlgorithm", "HierMinimax", "RunResult",
        "SemiAsyncHierMinimax", "TradeoffSchedule", "tradeoff_schedule",
    ),
    "repro.data": (
        "DATASET_NAMES", "Dataset", "FederatedDataset",
        "make_federated_dataset",
    ),
    "repro.compression": (
        "IdentityCompressor", "QSGDQuantizer", "TopKSparsifier",
    ),
    "repro.defense": (
        "AttackPlan", "CoordinateMedian", "DefensePolicy", "Krum", "NormClip",
        "RobustAggregator", "TrimmedMean", "WeightedMean", "apply_label_flip",
        "resolve_defense",
    ),
    "repro.faults": (
        "CheckpointError", "FaultInjector", "FaultPlan", "RetryPolicy",
        "load_checkpoint_file", "save_checkpoint_file",
    ),
    "repro.invariants": (
        "InvariantMonitor", "InvariantViolationError", "Violation",
    ),
    "repro.membership": (
        "ChurnPlan", "MembershipManager", "resolve_membership",
    ),
    "repro.metrics": (
        "EvaluationRecord", "TrainingHistory", "evaluate_record",
    ),
    "repro.multilayer": ("HierarchyTree", "MultiLevelHierMinimax"),
    "repro.obs": (
        "MetricsRegistry", "NullTracer", "Tracer", "TraceWriter",
        "analyze_trace", "format_trace_report",
    ),
    "repro.nn": (
        "NeuralNetwork", "logistic_regression", "make_model_factory", "mlp",
    ),
    "repro.population": (
        "ClientStateStore", "EagerPopulation", "PopulationSpec",
        "VirtualPopulation", "as_population",
    ),
    "repro.simtime": (
        "HeterogeneousCostModel", "NullCostModel", "SimTimer",
        "make_cost_model",
    ),
    "repro.topology": ("CommunicationTracker", "HierarchicalTopology"),
})
