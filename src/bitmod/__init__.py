"""Per-group adaptive FP3/FP4 weight quantization with special values,
second-level INT8 scale factors, and a bit-accurate model of the matching
bit-serial accelerator (unified Booth / leading-one-decode term streams,
PE pipeline, cycle and memory-traffic simulation)."""

__version__ = "0.1.0"
# The PE kernel is plain Python; recorded in outputs as the kernel backend.
KERNEL_BACKEND = "pure"

from .dtype import (
    DataType,
    DataTypeSpec,
    GroupingConfig,
    effective_grid,
    spec_for,
)

__all__ = [
    "KERNEL_BACKEND",
    "DataType",
    "DataTypeSpec",
    "GroupingConfig",
    "effective_grid",
    "spec_for",
    "__version__",
]
