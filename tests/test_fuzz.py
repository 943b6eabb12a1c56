"""Seeded manifest fuzz: manifests drawn from the expression grammar and the
manifest schema go through ``phwc.cli.main``, as ``check`` (plain or with a
``--tol`` override), ``sweep`` with ``--points`` and ``--seed``, or
``flow``.  Whatever is drawn, main returns 0, 1 or 2 and nothing escapes
it; a report holds finite numbers only, and no RuntimeWarning is raised
(the pytest configuration turns one into an error).  Most well-formed draws
run their checks or their flow."""

import json

import numpy as np
import pytest

from phwc import cli
from phwc.flow import stable_dt_bound

NUMBERS = ("0", "1", "2", "0.5", "1.5e-2", ".25", "3.", "1e3")
FUNCS = ("sin", "cos", "exp", "conj", "re", "im")
# texts every component slot must refuse with exit 2
MALFORMED = ("1e+", "2e-", ".", "x1 +", "x1^- 2", "(" * 300 + "x1" + ")" * 300,
             "+".join(["x1"] * 450))


def expression(rng, nvars: int, real: bool = False, depth: int = 3) -> str:
    """A text of the grammar in x1..x{nvars}, with unary minus, division
    and negative powers; a real one has no i."""
    leaves = [f"x{rng.integers(1, nvars + 1)}",
              NUMBERS[rng.integers(len(NUMBERS))]] + ([] if real else ["i"])
    k = rng.integers(len(leaves) + (5 if depth else 0))
    if k < len(leaves):
        return leaves[k]

    def sub():
        return expression(rng, nvars, real, depth - 1)
    k -= len(leaves)
    if k == 0:
        return f"{sub()} {'+-*/'[rng.integers(4)]} {sub()}"
    if k == 1:
        return f"-{sub()}"
    if k == 2:
        return f"({sub()})^{rng.integers(-2, 4)}"
    if k == 3:
        return f"{FUNCS[rng.integers(len(FUNCS))]}({sub()})"
    return f"({sub()})"


def spd(rng, size: int, nvars: int):
    """A metric matrix, positive definite by construction: 1 + (e)^2 on the
    diagonal of real e, 0 off it."""
    return [[f"1 + ({expression(rng, nvars, real=True)})^2" if a == b
             else "0" for b in range(size)] for a in range(size)]


def gram(rng, size: int, nvars: int, real: bool):
    """A metric matrix, positive definite by construction and full off the
    diagonal: I + E E^T of real E, or I + A A^H of complex A, written out
    entry by entry, each (j, i) the mirror of (i, j)."""
    e = [[expression(rng, nvars, real, depth=2) for _ in range(size)]
         for _ in range(size)]
    star = "({})*({})" if real else "({})*conj({})"

    def entry(i, j):
        terms = [star.format(e[i][k], e[j][k]) for k in range(size)]
        return " + ".join(["1"] * (i == j) + terms)
    return [[entry(i, j) for j in range(size)] for i in range(size)]


def draw(rng) -> tuple[dict, bool]:
    """A manifest, and whether it is well formed."""
    dim, cdim = int(rng.integers(1, 5)), int(rng.integers(1, 4))
    raw = {"domain": {"dim": dim, "metric": "euclidean"},
           "target": {"cdim": cdim, "hermitian": "flat",
                      "kaehler": bool(rng.random() < 0.8)},
           "map": {"components": [expression(rng, dim)
                                  for _ in range(cdim)]}}
    k = rng.random()
    if k < 0.6:
        raw["domain"]["metric"] = (spd(rng, dim, dim) if k < 0.4 else
                                   gram(rng, dim, dim, real=True))
    k = rng.random()
    if k < 0.6:
        raw["target"]["hermitian"] = (spd(rng, cdim, 2 * cdim) if k < 0.4
                                      else gram(rng, cdim, 2 * cdim, False))
    if rng.random() < 0.3:
        grid = [int(n) for n in rng.integers(4, 9, rng.integers(1, 3))]
        raw["flow"] = {
            "grid": grid, "max_steps": int(rng.integers(1, 6)),
            "dt": float(rng.uniform(0.1, 0.9) * stable_dt_bound(grid)),
            "initial": [expression(rng, len(grid)) for _ in range(cdim)]}
    else:
        names = [name for name in cli.CHECKS
                 if name != "pluriharmonic" or dim % 2 == 0]
        raw["checks"] = [str(name) for name in
                         rng.choice(names, rng.integers(1, len(names) + 1),
                                    replace=False)]
        box = [[-1.0, 1.0]] * dim
        if rng.random() < 0.2:      # extreme, but finite and ordered
            box = [[-1e150, 1e150], [1e-300, 2e-300], [0.0, 1e-9],
                   [1e6, 1e6 + 1]][:dim]
            box += [[-1.0, 1.0]] * (dim - len(box))
        raw["sample"] = {"count": int(rng.integers(1, 6)),
                         "seed": int(rng.integers(1000)), "box": box}
    if rng.random() < 0.85:
        return raw, True
    slot = ("flow", "initial") if "flow" in raw else ("map", "components")
    raw[slot[0]][slot[1]][0] = MALFORMED[rng.integers(len(MALFORMED))]
    return raw, False


def arguments(rng, raw: dict, path) -> list:
    """The command line that runs the manifest raw, stored at path."""
    if "flow" in raw:
        return ["flow", str(path)]
    k = rng.integers(3)
    if k == 1:
        return ["sweep", str(path), "--points", str(rng.integers(1, 6)),
                "--seed", str(rng.integers(1000))]
    if k == 2:
        return ["check", str(path), "--tol", f"{raw['checks'][0]}=1e-3"]
    return ["check", str(path)]


def finite(text: str):
    def refuse(name):
        raise AssertionError(f"{name} in a JSON report")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_drawn_manifests_exit_cleanly(tmp_path, capsys, seed):
    rng = np.random.default_rng(seed)
    ran = well_formed = 0
    for k in range(25):
        raw, ok = draw(rng)
        path, out = tmp_path / f"m{k}.json", tmp_path / f"r{k}.json"
        path.write_text(json.dumps(raw))
        code = cli.main([*arguments(rng, raw, path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), raw
        if code == 2:
            assert err.startswith("error: "), raw
        else:
            finite(out.read_text())
        assert ok or code == 2, raw
        well_formed += ok
        ran += ok and code != 2
    assert ran >= well_formed / 2
