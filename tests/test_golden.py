"""Frozen CLI outputs: the SHA-256 of each report payload and CSV grid.

Report hashes drop ``diagnostics.timings`` (wall time), so they hold on every
machine whose float arithmetic matches; everything else a report says is
covered byte for byte.  A refactor that changes any number, key or
formatting in these outputs fails here.
"""

import hashlib
import json

import pytest

from pvilab.cli import main

REPORTS = [
    (
        ["eval", "--r", "1/4", "--s", "0", "--tau", "0+1.5i"],
        "66856f9937aa1c9e2613b59225a7bac17cc64508796809df53237c979a3bf15e",
    ),
    (
        ["eval", "--r", "1/3", "--s", "0", "--tau", "0.2+1.2i"],
        "dbf5cea5d848f34bc17d12e544233bc72f94a533695bb007d6502bab006ded37",
    ),
    # |alpha - lattice| = 1e-3, below EXPANSION_SWITCH: the Laurent path
    (
        ["eval", "--r=-0.099-0.6i", "--s", "1/2", "--tau", "0.2+1.2i"],
        "f5c9752ff91e8a8499d40b951ca1a216c380bb788d706705e8d8b4bd42331ff6",
    ),
    (
        ["zeros", "--r", "0.6", "--s", "0.3", "--domain", "F0"],
        "9652aa1a925be0e76d280d8d3bc328822bcf5bd75e6a6512b2cd69aa019e0f90",
    ),
    (
        ["zeros", "--r", "0.6", "--s", "0.3", "--domain", "F"],
        "447d7c2cd85ea6f322a5058a17e6490f302e6d1150c5664a5c2e8440ae48b5c8",
    ),
    (
        ["zeros", "--r", "0.6", "--s", "0.3", "--domain", "F2"],
        "821c67e01e1dffbf9eac6e2b42c51243f40322db9d70e05588a7640722b64c36",
    ),
    (
        ["zeros", "--r", "1/5", "--s", "1/5", "--domain", "F"],
        "8064d98c342881010163bbbe67a76aec0ae3ca62360b343c2947e418e1295bfa",
    ),
    # winding 1 over F: the one case whose zero lies inside F
    (
        ["zeros", "--r", "4/5", "--s", "3/10", "--domain", "F"],
        "7fe557c66688ce20f2ad61310be2a49cb0e5abf175db3f277649085601a0c743",
    ),
    # s = 1/2: cusp series inside the contour, order-1/2 cap at infinity
    (
        ["zeros", "--r", "1/5", "--s", "1/2", "--domain", "F0"],
        "fd6af74164f636b9d77fbfde027526491f9df234a4ef414bfa71c9a9ad5ada50",
    ),
    # r = 1/2: degenerate direction at the cusp 1, excised disk, one zero
    (
        ["zeros", "--r", "1/2", "--s", "1/5", "--domain", "F2"],
        "482f1ab788cd740709619b998dcdf8fd23e4a46ab57fb4039852bfd3836406d5",
    ),
    (
        ["count", "--N", "8"],
        "adf10fe899d1333864eebdc526f6cfa91946bc23ff59e36dc7852c156f04c279",
    ),
    (
        ["count", "--N", "12"],
        "b7d8ec3bf26836ba3f5256c6720fb9bb0efb2f833f1077621fd0cc662f0e68f6",
    ),
    (
        ["orbits", "--N", "6"],
        "c72a5a9adc687487ae0287407d053144a8bb26189afdfefcfc196d51fb4e99d3",
    ),
    # odd N: one class, reached through the odd-N witness choices
    (
        ["orbits", "--N", "7"],
        "3b3f5feeb5df9f08c4e24c02c74f43ec5b936aec42e0410bcc407ab264cd8c1c",
    ),
]

GRIDS = [
    (
        "z2",
        ["scan", "--mode", "z2", "--r", "0.3", "--s", "0.2",
         "--re-min", "0.0", "--re-max", "0.5", "--im-min", "0.8", "--im-max", "1.2",
         "--nx", "5", "--ny", "4"],
        "c5bdd62034bdc3361541f98e852ebad2886bf3299ac95d0c8993b686421a065b",
    ),
    (
        "winding",
        ["scan", "--mode", "winding", "--domain", "F0",
         "--re-min", "0.55", "--re-max", "0.65", "--im-min", "0.25", "--im-max", "0.35",
         "--nx", "2", "--ny", "2"],
        "68c2666061030ffb2119e071d0a0a871f28ff9034353717d04a927881d81d428",
    ),
    # s = 0: rows below and above height 2, where z2_stable once switched to
    # the cusp series; the cusp rule now takes the series on every row
    (
        "z2-series-switch",
        ["scan", "--mode", "z2", "--r", "1/3", "--s", "0",
         "--re-min", "0", "--re-max", "0.5", "--im-min", "1.5", "--im-max", "3",
         "--nx", "3", "--ny", "4"],
        "329cc64e71a3e76ffa0e097ed40d2ab1238f85418795efd64a84101b1702f0f0",
    ),
]


@pytest.mark.parametrize("argv,digest", REPORTS, ids=[" ".join(a) for a, _ in REPORTS])
def test_report_payload_frozen(argv, digest, tmp_path):
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    payload["diagnostics"].pop("timings", None)
    text = json.dumps(payload, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("name,argv,digest", GRIDS, ids=[n for n, _, _ in GRIDS])
def test_scan_csv_frozen(name, argv, digest, tmp_path):
    out = tmp_path / "grid.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
