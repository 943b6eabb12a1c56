"""The report bytes every performance change must keep.

Each entry is a command line of ``phwc`` and the full sha256 of the report
it writes.  The digests come from numpy 2.4.6, the version the CI's Python
3.11 leg installs; a change that moves one of them changes what phwc
reports, and must say why.
"""

import hashlib
import pathlib

import pytest

from phwc import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent

REPORT_SHA256 = {
    "verify-paper --seed 42":
        "3ea5085ed3970afc0656319e1ab06e1049017b1cf5cfd9a157f39620910f3b6f",
    "verify-paper --seed 1":
        "1558ad4e308d110350e27787b3dc58eabe0c6e8e8fa6253f8c7afdc196e81d95",
    "verify-paper --seed 7":
        "bc722d9c3273779ef25c570ae7093e6a6ef2c56783b28ed5577ff912759b5a2d",
    "verify-paper --seed 123":
        "fecc1da6146a3252fb380e968a23c12ec5bececcf7981f0dc6810a9e34e8725b",
    "sweep example1 --seed 3 --points 300":
        "a76a7931a45cac4f43cfce84098fabf28560ca6409619560f2813b9297712fe3",
    "sweep example2 --seed 3 --points 300":
        "54970006456c0d786e94a5dbda699b5414e933736d21d6d198444e4877821716",
    "check manifests/curved_target.json":
        "184f1289b1713171b287442a951b45da467658d672e77816dc866611a2d46169",
    "flow manifests/flow_demo.json":
        "21da4d62bf6d6331d500c7efc04b09be87ad7e3d076bb60a8f589cf0bede4ec6",
}


@pytest.mark.parametrize("command", REPORT_SHA256)
def test_report_bytes_are_pinned(command, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    out = tmp_path / "report.json"
    assert cli.main([*command.split(), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        REPORT_SHA256[command]
