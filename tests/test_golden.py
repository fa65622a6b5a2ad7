"""Behaviour lock: sha256 of the CLI documents for four small pairs.

The hashes pin the byte-identical JSON that ``build``, ``check``,
``verify`` and ``verify --cross-validate`` emit.  A change that moves
one of them changes the output contract and must say why.  (3, 3) lies
outside the guarantee regime and locks the findings: its ``check`` has
5,346 ``inter_osc`` violations and 324 bigon pairs.  ``COMPOSITE_K``
pins ``verify --cross-validate`` at (4, 4) and (3, 4): every pair above
has prime k, and only a composite k reaches the members of a wrap
row's twist other than the least.

The ``verify`` and ``cross_validate`` hashes moved once, deliberately,
when ``verify`` stopped building a truncation: the two structural
certificates, ``cond1_corner_types`` and ``cond2_orientation``, now
state a scan of the square shapes (4mk corners and 2mk opposite pairs)
instead of the cells of a hidden build.  ``WITHOUT_STRUCTURAL`` pins the
rest of those documents: the hashes of each document re-dumped without
its two ``cond*`` certificates, recorded before that change.  They prove
every other byte, the osculation certificates, stabilisers and the
``cross_validation`` section included, stayed the same.

The ``build`` hashes, ``WORKLOAD_BUILD`` included, moved once, as a
reorder only, when the builder began to lay out each kind of cell in
sorted-id order: each is the sha256 of the document written before, with
its vertices, edges and squares each sorted by id and re-dumped by
``json.dumps(indent=2)``.

``GOLDEN_DOT`` pins the interaction graph that ``check --dot`` writes, its
dashed osculation edges included, as recorded while ``interaction_report``
still kept a first witness per osculating class pair.
"""

import hashlib
import json
from pathlib import Path

import pytest

from cubespec.cli import main

# (m, k) -> command -> (exit code, sha256 of the document)
GOLDEN = {
    (3, 3): {
        "build": (0, "78043dad936a95a98be6326e0ae43a0973018a9fc1ba02ea03bfaf1d9d095e32"),
        "check": (1, "8e8412bf5ed602115a8b58f216de8a940c184139a91bbb2a86b3349bc5cfec3a"),
        "verify": (1, "db6eacdec87649b4074be587ab6acca48c0e2109e47f62c78606d981f6769e57"),
        "cross_validate": (1, "af84dd9d9a08e0e9dcabe14c38ceb6f92ccaa7c4b646fc4c3a7a5f23a2ae6a6c"),
    },
    (4, 2): {
        "build": (0, "e07101b808e641714a6fcfd6e9006d73da583b2ac07fefd127d264ffe22b243a"),
        "check": (0, "b5d96a892647bac3629b5caeab85b8fcdfab33c0cffda389d0eab013876558ec"),
        "verify": (0, "728b3d08222d70f7d5c88741f7704314852a5ced5da142507723054b408b6c9a"),
        "cross_validate": (0, "8dc09240a0950a649ed10e06297166059815ace1add18539221d34e58142041e"),
    },
    (4, 3): {
        "build": (0, "a5da2a9660ea0638b7dd527d12391e9640e9643d48ae62523de5b406cbaa699b"),
        "check": (0, "3308547c0848eabc59451d5daf52c3632631428c007114f402d8ae5aaa674e2d"),
        "verify": (0, "a61b884b9b30846a3e466e04c28656d068d89fa61bad36ae4fa26aa5cbf9240a"),
        "cross_validate": (0, "b0b5e79e48c9d9e388f36edb402baeddf9349fffd0de8d3f7cfb4398635fcd16"),
    },
    (5, 2): {
        "build": (0, "da52923f76e1006ba744afcd99a7b3532565463163a09eb9bb1546b3b15cdf3f"),
        "check": (0, "f298212418adb342c1ba0395df1e97222fbd21ccbb45efc1f9d1ea904268b832"),
        "verify": (0, "0d926cb2a3e17d841f3aefca099f34b80f0f965735f10c126ec9ee2db6f2e507"),
        "cross_validate": (0, "4bd108bd176f742b4b07b8bd38fe5bc93ea473b569812ae8b6c035e251e9b13f"),
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


# (m, k) -> (exit code, sha256 of the verify --cross-validate document)
COMPOSITE_K = {
    (3, 4): (1, "474b404feefce7e05b37e6753a9f26477fa3146a7b15bb90a2f8b50a0bcdd580"),
    (4, 4): (1, "38bb520098866b7183959176a06c977fc447b0caca07a80715c3e16e39612aba"),
}


# (m, k) -> command -> (exit code, sha256 of the document without cond*)
WITHOUT_STRUCTURAL = {
    (3, 3): {
        "verify": (1, "7fcd062c28f524d5bdb7052d0e05e7ce10bab1d724ad20e85f13d38d2a17bbb6"),
        "cross_validate": (1, "77356f9f489e42a384a6cd2b09c6520485c044a024a48678ce124cd84e12ae06"),
    },
    (4, 2): {
        "verify": (0, "ea4d52e8972183dde9ed03e13f9b40700dd6cde2a142abf87631ea9c3824b173"),
        "cross_validate": (0, "5745cd646d56770965f8cb5ed9991b5aeedc69c8c3e09af1b52acdbaabb7efc2"),
    },
    (4, 3): {
        "verify": (0, "12f9aecf63cfd374ab52d2a2d0dd1318d7081ca1805c01bf8919a7f966891ef9"),
        "cross_validate": (0, "1af65ee977a1797781e40e9bca1b9518fa07def71de505a56e3be73723762e37"),
    },
    (5, 2): {
        "verify": (0, "b35230b636802a0cef6bb3e0e38b53fbea7bd39985a70fd98d9d1c2f5c75b86a"),
        "cross_validate": (0, "cf97cb74108e98ef0484cacc114f09940f1c231d06dc43adddbd7015c223236d"),
    },
}


# (build (m, k, h) over heights +-h, or a fixture), margin -> sha256 of the ``check --dot`` text
GOLDEN_DOT = {
    ((4, 2, 2), "0"): "ab2ff74160e7550231375e7cdad16d47da9686fadd0b02043e58fff13429e1db",
    ((4, 3, 4), "2"): "ec5d79881f615c37fe34a21d708f2962ff5f4b34866c30214d94542e74a0b6a0",
    ("osculating_wedge", "0"): "fb736e901d08117f1a7838100b0880fe4d5dec7f9eb8ef6994d6aea86dc2c479",
}
FIXTURES = Path(__file__).resolve().parent.parent / "src" / "cubespec" / "fixtures"


def documents(m: int, k: int, workdir) -> dict[str, tuple[int, bytes]]:
    """Exit code and document bytes of each of the four commands."""
    doc = str(workdir / f"x{m}{k}.json")
    out = {}
    for name, argv in _commands(m, k, doc).items():
        path = doc if name == "build" else str(workdir / f"{name}{m}{k}.json")
        code = main([*argv, "-o", path])
        with open(path, "rb") as fh:
            out[name] = (code, fh.read())
    return out


def without_structural(body: bytes) -> bytes:
    """The document re-dumped without its cond1/cond2 certificates."""
    doc = json.loads(body)
    doc["certificates"] = [
        c for c in doc["certificates"] if not c["case_id"].startswith("cond")
    ]
    return (json.dumps(doc, indent=2) + "\n").encode()


def _sha256(body: bytes) -> str:
    return hashlib.sha256(body).hexdigest()


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    """The documents per pair, made once for both tables."""
    cache = {}

    def get(pair):
        if pair not in cache:
            cache[pair] = documents(*pair, tmp_path_factory.mktemp("golden"))
        return cache[pair]

    return get


@pytest.mark.parametrize("pair", sorted(GOLDEN))
def test_documents_match_golden_hashes(pair, produced):
    got = {name: (code, _sha256(body)) for name, (code, body) in produced(pair).items()}
    assert got == GOLDEN[pair]


@pytest.mark.parametrize("pair", sorted(COMPOSITE_K))
def test_composite_k_cross_validation_matches_golden_hash(pair, tmp_path, capsys):
    path = tmp_path / "cross_validate.json"
    code = main([*_commands(*pair, "")["cross_validate"], "-o", str(path)])
    capsys.readouterr()
    assert (code, _sha256(path.read_bytes())) == COMPOSITE_K[pair]


@pytest.mark.parametrize("pair", sorted(WITHOUT_STRUCTURAL))
def test_documents_outside_structural_certificates_unchanged(pair, produced):
    docs = produced(pair)
    got = {
        name: (docs[name][0], _sha256(without_structural(docs[name][1])))
        for name in WITHOUT_STRUCTURAL[pair]
    }
    assert got == WITHOUT_STRUCTURAL[pair]


@pytest.mark.parametrize("source, margin", list(GOLDEN_DOT))
def test_dot_matches_golden_hash(source, margin, tmp_path, capsys):
    if isinstance(source, str):
        doc = str(FIXTURES / f"{source}.json")
    else:
        m, k, h = map(str, source)
        doc = str(tmp_path / "doc.json")
        assert main(["build", "--m", m, "--k", k, "--hmin", f"-{h}", "--hmax", h, "-o", doc]) == 0
    dot = tmp_path / "graph.dot"
    main(["check", doc, "--margin", margin, "--dot", str(dot), "--json"])
    capsys.readouterr()
    assert _sha256(dot.read_bytes()) == GOLDEN_DOT[source, margin]


# the doc-pipeline benchmark workload: build (4,5) over +-12, then check it
WORKLOAD_BUILD = "9cd7c6436fcc4b21e545694a46b464e66d9c26f145a4af2015da242b6f5d28c7"
WORKLOAD_CHECK = "3a158878b11724d55be94fd9c251cdaf8635d42bc15be928b478e62fe342a4a2"


@pytest.mark.slow
def test_workload_scale_documents_match(tmp_path, capsys):
    # the streamed writer and reader at the size of the doc-pipeline workload
    doc = tmp_path / "doc.json"
    build = ["build", "--m", "4", "--k", "5", "--hmin", "-12", "--hmax", "12", "-o", str(doc)]
    assert main(build) == 0
    capsys.readouterr()
    assert _sha256(doc.read_bytes()) == WORKLOAD_BUILD
    assert main(["check", str(doc), "--margin", "5", "--json"]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == WORKLOAD_CHECK
