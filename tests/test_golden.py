"""Frozen CLI outputs: the SHA-256 of each report payload and CSV grid.

Report hashes drop ``diagnostics.timings`` (wall time) and
``diagnostics.backend`` (a constant label, "numpy", kept for benchmark
records), so they hold on every machine whose float arithmetic matches;
everything else a report says is covered byte for byte.  A refactor that changes any number, key or
formatting in these outputs fails here.
"""

import hashlib
import json

import pytest

from pvilab.cli import main

REPORTS = [
    (
        ["eval", "--r", "1/4", "--s", "0", "--tau", "0+1.5i"],
        "d2a7096331ba55f09600a0f1bac9e5e6e1056192a1c6c46556b9f51494da8438",
    ),
    (
        ["eval", "--r", "1/3", "--s", "0", "--tau", "0.2+1.2i"],
        "dcfd084fe5e3f378387003c1d7c7b66726ef52e943ac113565a25e4ce8406db3",
    ),
    # |alpha - lattice| = 1e-3, below EXPANSION_SWITCH: the Laurent path
    (
        ["eval", "--r=-0.099-0.6i", "--s", "1/2", "--tau", "0.2+1.2i"],
        "8bcc53d2aa7e76faf0a3eb9c69fe8a7b9c62049ae5f8951c42d5d94d25882b23",
    ),
    (
        ["zeros", "--r", "0.6", "--s", "0.3", "--domain", "F0"],
        "0c529927ac004a5e3216155e676a0b2412c985a56ad0fba30a4a23fc77423f7d",
    ),
    (
        ["zeros", "--r", "0.6", "--s", "0.3", "--domain", "F"],
        "a44f055c1d6318c6c1e944a938567fac812a1c7e7ee4045f51b7729647e85720",
    ),
    (
        ["zeros", "--r", "0.6", "--s", "0.3", "--domain", "F2"],
        "496099e81a11d7367e0856931e3787e8c5296d0414c2965c54ba6b16ac6a4287",
    ),
    (
        ["zeros", "--r", "1/5", "--s", "1/5", "--domain", "F"],
        "b6081db7a57204f8d0fbc6e961486b21bf0db1bd37442b03bc727474c7ba8b64",
    ),
    # winding 1 over F: the one case whose zero lies inside F
    (
        ["zeros", "--r", "4/5", "--s", "3/10", "--domain", "F"],
        "d93601eea736d1e2e6bc16a11e30c46c3c7d0dec7516aa2fdc92738067ec7ac5",
    ),
    # s = 1/2: cusp series inside the contour, order-1/2 cap at infinity
    (
        ["zeros", "--r", "1/5", "--s", "1/2", "--domain", "F0"],
        "3247d98367b23c1aaff97e1cc7e777de901bfa873dd54c8ce5b81fdbbf287947",
    ),
    # r = 1/2: degenerate direction at the cusp 1, excised disk, one zero
    (
        ["zeros", "--r", "1/2", "--s", "1/5", "--domain", "F2"],
        "95d5ac699c2465ebbbbc9fe857f5d1081f38b2ca776e71e0f6a0b08eb7635d4a",
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
        "933bd30c3644d84bacf4fa92a9c90ce30ef34bb4598770824387329be165390a",
    ),
    # odd N: one class, reached through the odd-N witness choices
    (
        ["orbits", "--N", "7"],
        "6379c9e93ec8a3bcfcfce7689afb4325ecbe13464025b52f2857a69ca86375c9",
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
    payload["diagnostics"].pop("backend", None)
    text = json.dumps(payload, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("name,argv,digest", GRIDS, ids=[n for n, _, _ in GRIDS])
def test_scan_csv_frozen(name, argv, digest, tmp_path):
    out = tmp_path / "grid.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
