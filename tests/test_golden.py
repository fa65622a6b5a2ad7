"""Behaviour lock: sha256 of the CLI documents for four small pairs.

The hashes pin the byte-identical JSON that ``build``, ``check``,
``verify`` and ``verify --cross-validate`` emit.  A change that moves
one of them changes the output contract and must say why.  (3, 3) lies
outside the guarantee regime and locks the findings: its ``check`` has
5,346 ``inter_osc`` violations and 324 bigon pairs.
"""

import hashlib

import pytest

from cubespec.cli import main

# (m, k) -> command -> (exit code, sha256 of the document)
GOLDEN = {
    (3, 3): {
        "build": (0, "98f8dba167d613ab5c1294bb04b4ec2016f3193e5536a95c10469a7d6125ecc8"),
        "check": (1, "8e8412bf5ed602115a8b58f216de8a940c184139a91bbb2a86b3349bc5cfec3a"),
        "verify": (1, "1a2eb8c4f85c9339d3a0512788a78a8c8ac45381ba7726d31f9c7884a3b33299"),
        "cross_validate": (1, "a90a03ab707037e25e1af1cceea2d3b009cb46a88792576998fb8ac117b9679a"),
    },
    (4, 2): {
        "build": (0, "f9802b24bbe650ab9134358d8cf2d2d1ecdaa22821f12663a9e720011a2acfdb"),
        "check": (0, "b5d96a892647bac3629b5caeab85b8fcdfab33c0cffda389d0eab013876558ec"),
        "verify": (0, "777b7edd3256dfc66a6759a18e05c4a4e0944be6389a072507743d587f290a70"),
        "cross_validate": (0, "76ccf2a796c633aabf326355e84260bbe84336a3edba4b4bd0632913276b9eef"),
    },
    (4, 3): {
        "build": (0, "e6567cb4d5bb6eac055a9fcb85acb6565d344ec6f21986f72422636ce6b03a5e"),
        "check": (0, "3308547c0848eabc59451d5daf52c3632631428c007114f402d8ae5aaa674e2d"),
        "verify": (0, "1a8e775177e1690ad5538182dd55f0100a9bb752b813041b7860e664fe1bc729"),
        "cross_validate": (0, "f644b200de8f8769bc2fbb634a0939d53b33cb60bcd01306043ff36b361be3fc"),
    },
    (5, 2): {
        "build": (0, "44a64488744c2f26f2a080fea96c0346dcfb5cb9127eb5f50f05b97c7b2bf7b6"),
        "check": (0, "f298212418adb342c1ba0395df1e97222fbd21ccbb45efc1f9d1ea904268b832"),
        "verify": (0, "512d72ba826868914660c97c2213fc188c0c5cf3b0a1269e71d080e7be3d7509"),
        "cross_validate": (0, "4da093b1b89b8ae79bd3e2cf9f2f839f0327f24ba36a80c1d9adbfa2ef211365"),
    },
}


def _commands(m: int, k: int, doc: str) -> dict[str, list[str]]:
    """The four CLI invocations for one pair, over heights +-(2k+2)."""
    pair = ["--m", str(m), "--k", str(k)]
    span = ["--hmin", str(-(2 * k + 2)), "--hmax", str(2 * k + 2)]
    return {
        "build": ["build", *pair, *span],
        "check": ["check", doc, "--margin", "2"],
        "verify": ["verify", *pair],
        "cross_validate": ["verify", *pair, "--cross-validate", *span, "--margin", str(k)],
    }


def documents(m: int, k: int, workdir) -> dict[str, tuple[int, str]]:
    doc = str(workdir / f"x{m}{k}.json")
    out = {}
    for name, argv in _commands(m, k, doc).items():
        path = doc if name == "build" else str(workdir / f"{name}{m}{k}.json")
        code = main([*argv, "-o", path])
        with open(path, "rb") as fh:
            out[name] = (code, hashlib.sha256(fh.read()).hexdigest())
    return out


@pytest.mark.parametrize("pair", sorted(GOLDEN))
def test_documents_match_golden_hashes(pair, tmp_path, capsys):
    got = documents(*pair, tmp_path)
    capsys.readouterr()
    assert got == GOLDEN[pair]
