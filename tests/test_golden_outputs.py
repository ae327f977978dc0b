"""Pinned output bytes of CLI runs whose results use only IEEE arithmetic.

Every argv here takes a ``poly:`` target, a ``ramp`` or ``smoothstep:k``
kernel and a constant ``--alpha``, so its bytes depend only on correctly
rounded add, multiply, divide, min and max, not on LAPACK and, but for the
closed-form dimension's two logarithms, not on libm: a refactor that
claims "same outputs" must keep each hash.  Fitted values
(``estimated_dimension``, ``r_squared``) and transcendental targets and
kernels are left out, because their last bits may differ between builds.

Each case must exit 0 and hashes its stdout (the output directory masked)
and every output file; a ``dimension`` case hashes only the box counts and
the closed-form dimension of its ``dimension.json``.
"""

import hashlib
import json

import pytest

from fif.cli import main

POLY = "poly:0.2,1.5,-0.8"

GOLDEN = {
    "build-alpha-N4": [
        "build", "--function", POLY, "--N", "4", "--n", "16", "--alpha", "0.4",
        "--kernel", "ramp", "--grid-exp", "8",
    ],
    "build-alpha-N5-smoothstep": [
        "build", "--function", "poly:0,1,-1", "--N", "5", "--n", "10", "--alpha", "0.5",
        "--kernel", "smoothstep:2", "--grid-exp", "8",
    ],
    "build-discrete-N4": [
        "build", "--discrete", "--function", POLY, "--N", "4", "--n", "8",
        "--alpha", "0.3", "--kernel", "smoothstep:1", "--grid-exp", "8",
    ],
    "converge-N5": [
        "converge", "--function", POLY, "--N", "5", "--alpha", "0.5",
        "--kernel", "ramp", "--n-ladder", "4,8,16", "--grid-exp", "8",
    ],
    "smooth-r2": [
        "smooth", "--function", POLY, "--N", "4", "--r", "2", "--kernel", "smoothstep:3",
        "--n", "16", "--alpha", "0.05", "--grid-exp", "8",
    ],
    "bounds-discrete-N4": [
        "bounds", "--function", POLY, "--N", "4", "--alpha", "0.3", "--discrete",
        "--kernel", "smoothstep:1", "--n-ladder", "4,8,16",
    ],
    "dimension-plain-N4": [
        "dimension", "--function", "poly:0,1,-1", "--N", "4", "--n", "1",
        "--alpha", "0.55", "--grid-exp", "15",
    ],
    "dimension-chaos-N4": [
        "dimension", "--function", "poly:0,1,-1", "--N", "4", "--n", "1",
        "--alpha", "0.55", "--chaos", "--points", "100000", "--seed", "7",
    ],
}

HASHES = {
    "bounds-discrete-N4": {
        "stdout": "662c211d6c2c71d5b12cb62d3054831918b1afde090c16652b1b775c9b42a064",
    },
    "build-alpha-N4": {
        "stdout": "bcd84243290c47accada64ee70332af5d4fedf8a3e04c1daa1729be64877df6b",
        "fif.csv": "e40fb6542eb59ff4fd96b07cd1692ff74e4e162e721959ab62a2254508cb01b8",
        "meta.json": "fd4a55caebf323931680b225f174aef8c1616d642320e49ef7736ea4cbb903f6",
    },
    "build-alpha-N5-smoothstep": {
        "stdout": "08fb6c59c133b09b88e7c623072cbbb8c952038b218700535e19c20e5b64d3ae",
        "fif.csv": "3d47d96c72fad07ab3c6d0fbb83ee4eb5766cfadf306d9bda05a99c394a8f99b",
        "meta.json": "7cc330ef454150a2d8ca40b48d901ec512d126a33a7d70a23cb97ecc7cc7a69f",
    },
    "build-discrete-N4": {
        "stdout": "bcd84243290c47accada64ee70332af5d4fedf8a3e04c1daa1729be64877df6b",
        "fif.csv": "f84d4ad2713e95dc99881bb804c8210543a125a59463a994b311f02a84a03907",
        "meta.json": "4beaaeff35a4ea69a102f20d0c9ac3b4bea1aa60f882aa616df80ddabda7aab4",
    },
    "converge-N5": {
        "stdout": "a7ae154f5e106e431fd003534392a3f706d10ddee5452ea1599578726181a288",
        "converge.csv": "238fe3abb221e9d47a8e343e14a154635982fa8c6f5441c18770a5d014c22d4d",
        "meta.json": "713c8d046f32cce0b238504910f1dc730276544905c1ee7efa9e2b5ea9803149",
    },
    "dimension-chaos-N4": {
        "dimension.json": "472ef43da562620ef6f098d6236cb86dae07ad34645bc480fdfa49fa5259abbd",
    },
    "dimension-plain-N4": {
        "dimension.json": "b0136cabf0455171dd192843bae78467bd9f38c51df7df0fc00a6dde01849ede",
    },
    "smooth-r2": {
        "stdout": "68572739f52bc837d095f396db1e436d1b08e8ce1180c1c3f06d035b30c8e48c",
        "meta.json": "f0727846de38fc00ee255be1cae9fbba3f4a173dca86f91cda34406b00bc49bd",
        "smooth.csv": "ac30f5355fdf3e289c851e6f5fe374b76e0803f367680fa73dae7d8038051a3f",
    },
}


def _digest(name, tmp_path, capsys):
    out = tmp_path / name
    code = main(GOLDEN[name] + ["--out", str(out)])
    stdout = capsys.readouterr().out
    parts = {}
    if GOLDEN[name][0] == "dimension":
        results = json.loads((out / "dimension.json").read_text())["results"]
        parts["dimension.json"] = json.dumps(
            [results["counts"], results["theoretical_dimension"]]).encode()
    else:
        parts["stdout"] = stdout.replace(str(out), "<out>").encode()
        for path in sorted(out.iterdir()) if out.is_dir() else []:
            parts[path.name] = path.read_bytes()
    return code, {k: hashlib.sha256(v).hexdigest() for k, v in parts.items()}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output_bytes(name, tmp_path, capsys):
    assert _digest(name, tmp_path, capsys) == (0, HASHES[name])
