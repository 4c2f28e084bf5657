#!/usr/bin/env python3
"""Export the closure of the two-loop model as exact piecewise data.

The hub's self-closure is the supremum of the identity, each loop body, and
their ordered composition; the JSON printed here carries every region piece
(boundary line and affine value) so the x/t plane partition can be plotted
without this library.
"""

import json
from pathlib import Path

from rtenergy import mat_star, parse_model, to_matrix_rep
from rtenergy.regions import function_json

MODELS = Path(__file__).resolve().parent.parent / "models"


def main():
    model = parse_model((MODELS / "two_loops.rtea").read_text())
    rep = to_matrix_rep(model)
    star = mat_star(rep.matrix)
    hub = rep.state_names.index("hub")
    closure = star.succ[hub][hub]
    print(json.dumps({"state": "hub", "closure": function_json(closure)}, indent=2))


if __name__ == "__main__":
    main()
