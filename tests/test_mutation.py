"""Each residual, made to return zeros, must turn some record red.

A residual is patched under every name the package binds it to, as the
benchmark's tracer wraps it, so each caller sees the patched one.  Then
`verify-paper --seed 42` and `phwc check manifests/conformal_f_structure.json`
run, and each red record is one that noticed.  A residual that nothing
notices is a gap in what the bundle can detect; the test names the known
gaps, so closing one or opening another fails it by name.
"""

import pathlib
import sys

import numpy as np

from phwc import cli, fstruct, maps

ROOT = pathlib.Path(__file__).resolve().parent.parent

RESIDUALS = {
    "tension": maps,
    "parallel_residual": fstruct,
    "nijenhuis_residual": fstruct,
    "met_residual": fstruct,
    "domega_12_residual": fstruct,
    "phwc_residual_coord": maps,
}

# Zeroing either of these goes unnoticed: conformal_f_structure.json expects
# nijenhuis and domega12 to vanish, and every sample the bundle's theorem
# harness checks is harmonic, so implication (b) holds whatever they return.
# The families on which N or domega12 is not zero (FAMILIES in
# test_fstruct.py) are not samples of the bundle yet.
KNOWN_GAPS = {"nijenhuis_residual", "domega_12_residual"}


def zeros_like(value):
    if isinstance(value, maps.TensionPoint):
        return maps.TensionPoint(np.zeros_like(value.tau))
    return 0.0 if np.ndim(value) == 0 else np.zeros_like(value)


def zeroed(original):
    def mutant(*args, **kwargs):
        return zeros_like(original(*args, **kwargs))
    return mutant


def patch_everywhere(monkeypatch, original, replacement):
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "phwc"
                                  or name.startswith("phwc.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)


def red_records() -> list:
    raw = cli.parse_manifest(
        (ROOT / "manifests" / "conformal_f_structure.json").read_text())
    records = (cli.verify_paper(42)["records"]
               + cli.run_checks(raw)["records"])
    return sorted({rec["check"] for rec in records if not rec["pass"]})


def test_the_unmutated_bundle_is_green():
    assert red_records() == []


def test_only_the_known_gaps_survive_a_zeroed_residual(monkeypatch):
    noticed = {}
    for name, module in RESIDUALS.items():
        with monkeypatch.context() as patch:
            original = getattr(module, name)
            patch_everywhere(patch, original, zeroed(original))
            noticed[name] = red_records()
    unnoticed = {name for name, red in noticed.items() if not red}
    assert unnoticed == KNOWN_GAPS, noticed
