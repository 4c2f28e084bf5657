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
    leq_linear,
    normalize,
    order_witness,
)
from .matrix import (
    AutomatonRep,
    RtefMatrix,
    buchi_behavior,
    finite_behavior,
    mat_mul,
    mat_omega_accepting,
    mat_star,
)
from .model import ModelError, RteaModel, Transition, parse_model, serialize_model, to_matrix_rep
from .omega import OmegaVal, act, omega_of
from .rational import parse_rational
from .regions import extract_regions, function_json, region_eval

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
    "act",
    "atom",
    "buchi_behavior",
    "extract_regions",
    "finite_behavior",
    "function_json",
    "leq_linear",
    "mat_mul",
    "mat_omega_accepting",
    "mat_star",
    "normalize",
    "omega_of",
    "order_witness",
    "parse_model",
    "parse_rational",
    "region_eval",
    "serialize_model",
    "to_matrix_rep",
]
