"""NumPy neural-network substrate with hand-derived backprop.

Replaces the paper's PyTorch dependency (see DESIGN.md §1): flat-buffer models,
layers, losses, SGD with projection, and finite-difference gradient checking.
"""

from repro._lazy import lazy_exports

__all__ = [
    "gradient_check",
    "max_relative_error",
    "numerical_gradient",
    "fan_in_out",
    "kaiming_uniform_",
    "normal_",
    "xavier_uniform_",
    "zeros_",
    "Identity",
    "Layer",
    "Linear",
    "ParamSpec",
    "ReLU",
    "Tanh",
    "Loss",
    "MeanSquaredError",
    "SoftmaxCrossEntropy",
    "ModelFactory",
    "logistic_regression",
    "make_model_factory",
    "mlp",
    "NeuralNetwork",
    "SGD",
    "sgd_step",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.nn.gradcheck": (
        "gradient_check", "max_relative_error", "numerical_gradient",
    ),
    "repro.nn.init": (
        "fan_in_out", "kaiming_uniform_", "normal_", "xavier_uniform_",
        "zeros_",
    ),
    "repro.nn.layers": (
        "Identity", "Layer", "Linear", "ParamSpec", "ReLU", "Tanh",
    ),
    "repro.nn.losses": ("Loss", "MeanSquaredError", "SoftmaxCrossEntropy"),
    "repro.nn.models": (
        "ModelFactory", "logistic_regression", "make_model_factory", "mlp",
    ),
    "repro.nn.network": ("NeuralNetwork",),
    "repro.nn.optim": ("SGD", "sgd_step"),
})
