"""Flow-generated functions on planar networks over commutative semirings."""

__all__ = [
    "INTEGERS",
    "RATIONALS",
    "POSITIVE_RATIONALS",
    "TROPICAL_INT",
    "TROPICAL_RAT",
    "STAR",
    "fold_sum",
    "fold_product",
    "polynomial_ring",
    "star_extend",
]

__version__ = "0.1.0"


def __getattr__(name):
    """Serve ``__all__`` from ``semiring``, imported on first use (PEP 562)."""
    if name in __all__:
        from . import semiring

        return getattr(semiring, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
