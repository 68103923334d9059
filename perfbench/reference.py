"""Reference chi values through the public API, at a tighter tolerance.

    python3 reference.py IN.json OUT.json

IN holds a list of [material, field, model, z, omega, rel_tol], where
material is "copper" or the text of a material config file. OUT gets
[chi_xx, chi_zz, divisor] for each point: chi evaluated at
rel_tol/divisor, with divisor 100. Where that integral does not
converge within FIRST_BUDGET subdivisions the point is evaluated at
rel_tol/10 instead (divisor 10); null when that fails too. The small
first budget only decides how soon a hopeless integral gives up: an
integral that converges returns the same value under any budget.
"""

import json
import sys

import ewjn

FIRST_BUDGET = 200


def main() -> int:
    with open(sys.argv[1]) as fh:
        points = json.load(fh)
    out = []
    for material, field, model, z, omega, rel_tol in points:
        metal = (ewjn.load_material("copper") if material == "copper"
                 else ewjn.parse_material_config(material))
        attempts = ((100, ewjn.QuadratureConfig(rel_tol=rel_tol / 100.0,
                                                 max_subdivisions=FIRST_BUDGET)),
                    (10, ewjn.QuadratureConfig(rel_tol=rel_tol / 10.0)))
        result = None
        for divisor, cfg in attempts:
            try:
                tensor = ewjn.evaluate(metal, field, z, omega, model, cfg)
            except ewjn.QuadratureError:
                continue
            result = [tensor.chi_xx, tensor.chi_zz, divisor]
            break
        out.append(result)
    with open(sys.argv[2], "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
