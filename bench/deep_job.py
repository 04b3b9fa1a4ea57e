"""One deep_series job: series arithmetic only, no residues, no cache.

Builds the quintic flat-coordinate map from the level-5 Picard-Fuchs
solutions, inverts it, maps each forward component back through the
inverse (which must give the identity exactly), and reverses the first
40 oracle j-coefficients into weights.  Prints one JSON object with the
raw results; bench/run.py checks them against bench/oracles.py.

    PYTHONPATH=src python3 bench/deep_job.py
"""

import json

from oracles import j_oracle
from resmirror.geoms import geometry
from resmirror.series import (
    GradedSeries,
    MirrorMap,
    invert_mirror_map,
    picard_fuchs_basis,
    reversion_weights,
    transform,
)

TRUNC = 16
J_COUNT = 40


def _text(s):
    return {"affine": [str(c) for c in s.affine], "const": str(s.const),
            "terms": {"%d,%d" % dd: str(c) for dd, c in sorted(s.terms.items())}}


def main():
    D = TRUNC

    ratio = picard_fuchs_basis(5, 1, D).div_unit(picard_fuchs_basis(5, 0, D))
    forward = (GradedSeries((1, 0), 0, ratio.terms, D),
               GradedSeries((0, 1), 0, None, D))
    m = invert_mirror_map(MirrorMap(geometry("cpn", N=5, k=5), D, forward))

    round_trip = {str(i): _text(transform(m.forward[i], m)) for i in (0, 1)}

    weights = reversion_weights(j_oracle(J_COUNT))
    print(json.dumps({
        "map": {str(d): str(m.forward[0].coefficient((d, 0))) for d in (1, 2, 3)},
        "round_trip": round_trip,
        "weights": [str(w) for w in weights[:5]],
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
