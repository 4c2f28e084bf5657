"""Exact algebra of real-time energy functions and automata built on it."""

from .algebra import (
    Atom,
    BOTTOM,
    Energy,
    INFINITY,
    LinearRtef,
    Rtef,
    TIME_INF,
    Time,
    atom,
    normalize,
    order_witness,
)
from .matrix import (
    AutomatonRep,
    RtefMatrix,
    buchi_behavior,
    finite_behavior,
    mat_star,
)
from .model import ModelError, RteaModel, Transition, parse_model, serialize_model, to_matrix_rep
from .omega import OmegaVal
from .rational import parse_rational
from .regions import function_json

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "AutomatonRep",
    "BOTTOM",
    "Energy",
    "INFINITY",
    "LinearRtef",
    "ModelError",
    "OmegaVal",
    "Rtef",
    "RtefMatrix",
    "RteaModel",
    "TIME_INF",
    "Time",
    "Transition",
    "atom",
    "buchi_behavior",
    "finite_behavior",
    "function_json",
    "mat_star",
    "normalize",
    "order_witness",
    "parse_model",
    "parse_rational",
    "serialize_model",
    "to_matrix_rep",
]
