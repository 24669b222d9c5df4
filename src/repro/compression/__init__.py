"""Upload compression: QSGD quantization and top-k sparsification extensions."""

from repro._lazy import lazy_exports

__all__ = ["Compressor", "IdentityCompressor", "QSGDQuantizer", "TopKSparsifier"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.compression.base": ("Compressor", "IdentityCompressor"),
    "repro.compression.quantization": ("QSGDQuantizer",),
    "repro.compression.sparsification": ("TopKSparsifier",),
})
