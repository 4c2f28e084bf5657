"""The names ``rtenergy`` exports from its root."""

import importlib
import pkgutil

import rtenergy
from rtenergy import AutomatonRep, LinearRtef, Rtef, RtefMatrix

PUBLIC = {
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
}

# internals that stay importable from their own modules only
INTERNAL = {
    "act": "omega",
    "omega_of": "omega",
    "leq_linear": "algebra",
    "mat_mul": "matrix",
    "mat_omega_accepting": "matrix",
    "extract_regions": "regions",
}


def test_root_exports_the_public_names():
    assert set(rtenergy.__all__) == PUBLIC
    assert len(rtenergy.__all__) == len(PUBLIC)
    for name in PUBLIC:
        assert hasattr(rtenergy, name), name


def test_internals_live_in_their_modules():
    for name, module in INTERNAL.items():
        assert not hasattr(rtenergy, name), name
        assert callable(getattr(importlib.import_module(f"rtenergy.{module}"), name)), name
    assert not hasattr(importlib.import_module("rtenergy.regions"), "region_eval")


def test_one_export_list():
    modules = [info.name for info in pkgutil.iter_modules(rtenergy.__path__)]
    assert {"algebra", "matrix", "omega", "cli"} <= set(modules)
    for name in modules:
        assert not hasattr(importlib.import_module(f"rtenergy.{name}"), "__all__"), name


def test_fields_are_read_directly():
    # emptiness, row count and state lookup are spelled on the fields
    # (``not c.atoms``, ``not f.components``, ``len(m.succ)``,
    # ``rep.state_names.index``), not through renaming wrappers
    for cls in (LinearRtef, Rtef, RtefMatrix, AutomatonRep):
        for name in ("is_identity", "is_empty", "n_rows", "state_index"):
            assert not hasattr(cls, name), (cls.__name__, name)
