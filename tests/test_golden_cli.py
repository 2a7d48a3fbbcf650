"""Golden CLI output: the sha256 of stdout and the exit code of fixed commands.

The CLI promises byte-identical stdout across refactors.  Each hash below
was recorded from the reference CLI; a change that alters one of these
outputs on purpose records the new hash and says why in CHANGES.md.
"""

import hashlib
import json
import os
import shlex
import subprocess
import sys

import pytest

from knotsurgery.cli import main
from knotsurgery.laurent import LaurentPoly

DELTA_LS = ("x*y - 2 + y^-1", "x^2 - 1", "y - 1")

COMMANDS = [
    *(
        ["family", "--n", "2", "--pmin", "1", "--pmax", "60", "--format", f]
        for f in ("json", "csv", "text")
    ),
    ["alexander", "torus(2,401)"],
    # Delta spans about ten of the semigroup writer's windows
    ["alexander", "torus(2,40147)"],
    ["alexander", "--format", "json", "torus(5,12289)"],
    # grids of several rows: two in the second grid of T(4001,8003) and of
    # T(3,100003), ten in the first of T(101,1009), 47 and 26 in T(73,233)'s
    ["alexander", "torus(4001,8003)"],
    ["alexander", "--format", "json", "torus(101,1009)"],
    ["alexander", "torus(3,100003)"],
    ["alexander", "--no-symmetrize", "torus(73,233)"],
    ["alexander", "--no-symmetrize", "torus(7,9)"],
    ["alexander", "--no-symmetrize", "sum(torus(2,3),mirror(torus(3,4)))"],
    ["alexander", "--no-symmetrize", "--format", "json", "sum(torus(2,3),mirror(torus(3,4)))"],
    ["alexander", "--no-symmetrize", "unknot"],
    ["alexander", "--format", "json", "sum(torus(2,3),mirror(torus(3,4)))"],
    *(
        ["torres", "--lk", str(lk), poly, "--format", f]
        for lk in range(4)
        for poly in ("t - 1 + t^-1", "1", "0")
        for f in ("text", "json")
    ),
    ["sw", "--p", "17", "--n", "3", "--format", "json"],
    *(
        ["sw", "--p", "3", "--n", n, "--delta-l", delta, "--format", f]
        for n in ("1", "3")
        for delta in DELTA_LS
        for f in ("text", "json")
    ),
    # non-unit coefficients of both signs around the exponents 0 and 1
    ["torres", "--lk", "3", "3*t^2 - 7 + t - t^-1 + 12*t^-5"],
    ["torres", "--lk", "3", "--format", "json", "3*t^2 - 7 + t - t^-1 + 12*t^-5"],
    # more than one 4,096-term slice, coefficients beyond +-1
    ["alexander", "sum(torus(2,4097),sum(torus(3,4),torus(2,5)))"],
    ["alexander", "--format", "json", "sum(torus(2,4097),sum(torus(3,4),torus(2,5)))"],
    # a constant that has no variables, written over y at lk = 1 as at any lk
    ["torres", "--lk", "1", "--format", "json", "5"],
    # a constant Delta_L, and an n = 2 prefactor over a Delta_L in x only
    ["sw", "--p", "3", "--n", "1", "--delta-l", "5", "--format", "json"],
    ["sw", "--p", "3", "--n", "2", "--delta-l", "x^2 - 1", "--format", "text"],
]

# command line -> (exit code, sha256 of stdout)
GOLDEN = {
    "family --n 2 --pmin 1 --pmax 60 --format json": (
        0, "9ef23f789abdb1c4497d8373efe9d16cb8567fb3f7784007a865d37e017df278"
    ),
    "family --n 2 --pmin 1 --pmax 60 --format csv": (
        0, "8a3f96214e53baa7e344e86a1449ac51a29aefb1bcdd85852e618e0811d3feb2"
    ),
    "family --n 2 --pmin 1 --pmax 60 --format text": (
        0, "b7f41baaccab4165115fad04b3360432063f956692d4e86715df9a45e247abcb"
    ),
    "alexander 'torus(2,401)'": (
        0, "e1845cd0f5abc5e6799fbca9d1e647e861d3f9d1cd3e04cfc4fc3a894b1a675d"
    ),
    "alexander 'torus(2,40147)'": (
        0, "585a9a19dab191909310a677d519f1d862fa8d35d6fca00493b9385705d63f59"
    ),
    "alexander --format json 'torus(5,12289)'": (
        0, "b77ea96587f579cc5a66a4d7cfe0e3dba7da3bba27a17316839c23cccc3365b0"
    ),
    "alexander 'torus(4001,8003)'": (
        0, "bd3b71527303fe5215f740ec8146a922068ec5a8271bcc223a7032dc8af0eff9"
    ),
    "alexander --format json 'torus(101,1009)'": (
        0, "a52d75d047d4b2938ebbc8ad9f7f899dc5e2a86b914b974cdabdce0e1f24f5a9"
    ),
    "alexander 'torus(3,100003)'": (
        0, "a91b93841fa5dbf3210ef68334e796d4b582327df00c354872ae78e77e664582"
    ),
    "alexander --no-symmetrize 'torus(73,233)'": (
        0, "d3a76947f9598784cbc5ce5f7a350c2ec0749b9e9cdc170f50296df99219cfa2"
    ),
    "alexander --no-symmetrize 'torus(7,9)'": (
        0, "d533f7736c3231aba46871e36a200acb21e813f831775649b4418d83a247d574"
    ),
    "alexander --no-symmetrize 'sum(torus(2,3),mirror(torus(3,4)))'": (
        0, "ff79f74b76ec5f4abcb6ab5371e83896f18de9eadee70aa963a9642ff21c0c2c"
    ),
    "alexander --no-symmetrize --format json 'sum(torus(2,3),mirror(torus(3,4)))'": (
        0, "601d21848a6f42c5175a39db2648825192408288cbc8d483725e94867c9eba54"
    ),
    "alexander --no-symmetrize unknot": (
        0, "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"
    ),
    "alexander --format json 'sum(torus(2,3),mirror(torus(3,4)))'": (
        0, "356904405b49813ae6cedf9b282232cceaefa1b8a6453b58997dd708eb5e28a6"
    ),
    "torres --lk 0 't - 1 + t^-1' --format text": (
        0, "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"
    ),
    "torres --lk 0 't - 1 + t^-1' --format json": (
        0, "72da28a93585ba7081d0f65d555289d1cabb8ae6697ec3cc1e45e8d4c78d0d5a"
    ),
    "torres --lk 0 1 --format text": (
        0, "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"
    ),
    "torres --lk 0 1 --format json": (
        0, "fa24ed268e8109f18877b6dc027378862b1c6644fa2747dc6b41dbd95af0631f"
    ),
    "torres --lk 0 0 --format text": (
        0, "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"
    ),
    "torres --lk 0 0 --format json": (
        0, "fa24ed268e8109f18877b6dc027378862b1c6644fa2747dc6b41dbd95af0631f"
    ),
    "torres --lk 1 't - 1 + t^-1' --format text": (
        0, "4a2b8d90ed62438e472df727ba5ef805d21f16e78c7532ef3108ea81b1ef13b0"
    ),
    "torres --lk 1 't - 1 + t^-1' --format json": (
        0, "7e095ba399fc8c55cf4734acfca452bdc2d104eaddfe093169a9af511153c59e"
    ),
    "torres --lk 1 1 --format text": (
        0, "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"
    ),
    "torres --lk 1 1 --format json": (
        0, "9b6672caf62be8150d110109bc01fc79bc2098da1a3d4b5ddb684624fbb5b804"
    ),
    "torres --lk 1 0 --format text": (
        0, "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"
    ),
    "torres --lk 1 0 --format json": (
        0, "fa24ed268e8109f18877b6dc027378862b1c6644fa2747dc6b41dbd95af0631f"
    ),
    "torres --lk 2 't - 1 + t^-1' --format text": (
        0, "7750856493255c15817bfc6f94576c23c19a2f5b163e3e9889f594e0a4d1debb"
    ),
    "torres --lk 2 't - 1 + t^-1' --format json": (
        0, "cbb1cdeb8101532b1c557f11ff1d3951ba2827e8238eaecc7bcf2e7f5d2dd18d"
    ),
    "torres --lk 2 1 --format text": (
        0, "b5557b7392a0faa4fc9ae3f88a52bcba1899641fb4f069807b27daf632fbc51f"
    ),
    "torres --lk 2 1 --format json": (
        0, "9109fbda94f43c7d03155f3add78dd54dda91d98aca27241c029769971c7c3bb"
    ),
    "torres --lk 2 0 --format text": (
        0, "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"
    ),
    "torres --lk 2 0 --format json": (
        0, "fa24ed268e8109f18877b6dc027378862b1c6644fa2747dc6b41dbd95af0631f"
    ),
    "torres --lk 3 't - 1 + t^-1' --format text": (
        0, "d4e40297f09d8770809f7fbc9b01de9ed67f5194ff6329f816f3e0168be8a2d5"
    ),
    "torres --lk 3 't - 1 + t^-1' --format json": (
        0, "5b395da6a73ce48c67620b8da534758678dcc57828e77ba9f5c695031f53ef88"
    ),
    "torres --lk 3 1 --format text": (
        0, "44a378e4f8f35ca6a7c11c493e1b21cc0e9e45a97234bfa06be2b1533e5f424c"
    ),
    "torres --lk 3 1 --format json": (
        0, "bf9ae152f4dcf4022167e2683bb649082070f8bb2d5986136838bc5b5e39f64c"
    ),
    "torres --lk 3 0 --format text": (
        0, "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"
    ),
    "torres --lk 3 0 --format json": (
        0, "fa24ed268e8109f18877b6dc027378862b1c6644fa2747dc6b41dbd95af0631f"
    ),
    "sw --p 17 --n 3 --format json": (
        0, "95bf5d45a9c9fccc4ac047e003e4aeea6e6bee34fa9e1102b475bda2fe37e593"
    ),
    "sw --p 3 --n 1 --delta-l 'x*y - 2 + y^-1' --format text": (
        0, "a5c3901237fbb44929e2ba72e2dea97106531c98eb0dddb497f2a5e74b48e9f7"
    ),
    "sw --p 3 --n 1 --delta-l 'x*y - 2 + y^-1' --format json": (
        0, "310d29283b5c444d324701ee1abe3f234c4d77e6be112b2d40a1afa509d5242e"
    ),
    "sw --p 3 --n 1 --delta-l 'x^2 - 1' --format text": (
        0, "aa718ee5bb44bf42f9ebc0c8ee466441516b04cf491e36ff4d4768bb6951673a"
    ),
    "sw --p 3 --n 1 --delta-l 'x^2 - 1' --format json": (
        0, "3df16563d687647a1c0b10a7c915bf0b94ac65db25abcea7b61ed0c309a7a5f5"
    ),
    "sw --p 3 --n 1 --delta-l 'y - 1' --format text": (
        0, "3c57025cba83df4b9f0a514e0cf6b2aa48bd85aec25e40b0cd7a42b1f14bfbf1"
    ),
    "sw --p 3 --n 1 --delta-l 'y - 1' --format json": (
        0, "a172d9c9b4a40aebc533f0ca43d74c8f76a526285404e3e1008d85631e6862b6"
    ),
    "sw --p 3 --n 3 --delta-l 'x*y - 2 + y^-1' --format text": (
        0, "db77974d5d4538c0c02c04ea516c6b32291f97f0d8264d68692401de0f4cb85a"
    ),
    "sw --p 3 --n 3 --delta-l 'x*y - 2 + y^-1' --format json": (
        0, "0028d50bc31665f747a8f67ccb963eabcd84ed2f756706a25bb72182f4e75780"
    ),
    "sw --p 3 --n 3 --delta-l 'x^2 - 1' --format text": (
        0, "7d0bfb2a9665dc7a8beff1db756892e92d1162319d6149ef8024bc3f8bd2d479"
    ),
    "sw --p 3 --n 3 --delta-l 'x^2 - 1' --format json": (
        0, "44bda0ce00f07f251c5c4f2bf7c11c06100c7c9fdca3f5c7f7a77afb3fbfe616"
    ),
    "sw --p 3 --n 3 --delta-l 'y - 1' --format text": (
        0, "d7bc69c339cf7e29af0b8d41d1de2065c6b429641aa759e1193c398ed4ceb9c2"
    ),
    "sw --p 3 --n 3 --delta-l 'y - 1' --format json": (
        0, "74c3302c5ae256bf5fe8917ad88604ebf6f0a8ef15c9e34e1d3719b97778046a"
    ),
    "torres --lk 3 '3*t^2 - 7 + t - t^-1 + 12*t^-5'": (
        0, "f2b8eedb0d578bad55e8a2279c5ba77395bdf96f024b48a475214e61ec161839"
    ),
    "torres --lk 3 --format json '3*t^2 - 7 + t - t^-1 + 12*t^-5'": (
        0, "3325fd4ec9dcf110050f71cc2f39b0b6ecf5a54de5bdc21f6c0364b54391dc46"
    ),
    "alexander 'sum(torus(2,4097),sum(torus(3,4),torus(2,5)))'": (
        0, "64fb0a0f51e73e9f5aa4a911f21271e067c7bb3e3655186dc2fbd732427f476b"
    ),
    "alexander --format json 'sum(torus(2,4097),sum(torus(3,4),torus(2,5)))'": (
        0, "b621371daafa05aefc3234ba4e2a6a268b91004114b360fcf6068b23a4f814ac"
    ),
    "torres --lk 1 --format json 5": (
        0, "6d81ca9cc8bfeeb0f74d94b995ede61cb67796210aeeaaf6b9d4225b4c987e7e"
    ),
    "sw --p 3 --n 1 --delta-l 5 --format json": (
        0, "30b75651481dbd4e76461d96bc3fac8a7162d2fcc0ff555c76789712253328e6"
    ),
    "sw --p 3 --n 2 --delta-l 'x^2 - 1' --format text": (
        0, "b0821d01257402caa1a9fa59dcc17bd571de60df3cace4181c13b5013250be42"
    ),
}

CERTIFY_GOLDEN = {
    "certify": (0, "9fc85a08b03fa7ad70d7faec330dbe3540f2beca0fc28ed453a94bffe0c6dbc1"),
    "verify": (0, "d01df990e5ff9b9d846724e84f8c5f60b76b107bb0aa97c36df2bf0f7d153188"),
    "tampered": (1, "baf3262592f1060078b35f4895707b7e26c5354475eeb1c611c813a21e097c8e"),
}


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode("utf-8")).hexdigest(), out


def _no_json_dict(poly):
    raise AssertionError("the CLI writes polynomials from their terms, not via to_json_dict")


@pytest.mark.parametrize("argv", COMMANDS, ids=shlex.join)
def test_stdout_and_exit_code(capsys, monkeypatch, argv):
    monkeypatch.setattr(LaurentPoly, "to_json_dict", _no_json_dict)
    code, digest, _ = run(capsys, argv)
    assert (code, digest) == GOLDEN[shlex.join(argv)]


def test_certify_verify_and_tampered(capsys, tmp_path):
    code, digest, certificate = run(capsys, ["certify", "--target", "697"])
    assert (code, digest) == CERTIFY_GOLDEN["certify"]
    path = tmp_path / "cert.json"
    path.write_text(certificate, encoding="utf-8")
    code, digest, _ = run(capsys, ["certify", "--verify", str(path)])
    assert (code, digest) == CERTIFY_GOLDEN["verify"]

    # the last witness claims a bound one above what recomputation gives
    doc = json.loads(certificate)
    doc["witnesses"][-1]["lower_bound"] += 1
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    code, digest, _ = run(capsys, ["certify", "--verify", str(tampered)])
    assert (code, digest) == CERTIFY_GOLDEN["tampered"]


# the records larger than stdout's buffer, run as a process: app ends it with
# os._exit, so what reaches stdout is what was flushed before it.  The child's
# stdout is fully buffered, as by default; PYTHONUNBUFFERED would hide a lost
# flush
LARGER_THAN_A_BUFFER = [
    argv for argv in COMMANDS
    if argv[0] == "family" or argv[1:] in (["torus(2,40147)"], ["torus(3,100003)"])
]


def _through_the_entry_point(argv):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    return subprocess.run(
        [sys.executable, "-m", "knotsurgery", *argv], capture_output=True, env=env
    )


@pytest.mark.parametrize("argv", LARGER_THAN_A_BUFFER, ids=shlex.join)
def test_stdout_through_the_process_entry_point(argv):
    proc = _through_the_entry_point(argv)
    digest = hashlib.sha256(proc.stdout).hexdigest()
    assert (proc.returncode, digest) == GOLDEN[shlex.join(argv)]


def test_help_through_the_process_entry_point(capsys, monkeypatch):
    # argparse writes --help past the documents' flush, so app's flush sends it
    monkeypatch.setenv("COLUMNS", "80")
    assert main(["--help"]) == 0
    proc = _through_the_entry_point(["--help"])
    assert (proc.returncode, proc.stdout.decode("utf-8")) == (0, capsys.readouterr().out)
