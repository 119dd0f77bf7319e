"""Golden bytes of the command line: the sha256 of stdout and the exit code of
every command in every format, so a change to the renderer that moves one
byte of any report fails here.

The failing reports come from a shifted regular character (Steinberg and
the companion then fail on one class) and from canned acceptance results
(the real ones carry timings)."""

from __future__ import annotations

import hashlib

import pytest

from rootvol import acceptance, cli, weylgrp


def _shift_regular_character(monkeypatch):
    # The empty subset's character enters both identities with a nonzero
    # sign, so shifting one of its class values fails exactly that class.
    real = weylgrp.coset_character

    def shifted(table, positions):
        positions = list(positions)
        values = list(real(table, positions))
        if not positions:
            values[weylgrp.conjugacy_classes(table).class_of[table.right[1][0]]] += 1
        return tuple(values)

    monkeypatch.setattr(weylgrp, "coset_character", shifted)


def _canned_criteria(monkeypatch):
    results = [
        acceptance.CriterionResult(1, "node deletion identity", True, 0.1234, 5.0, {"types": ["A2", "G2"]}),
        acceptance.CriterionResult(2, "printed tables", True, 0.0, None, {}),
        acceptance.CriterionResult(3, "cone partition", False, 1.5, 60.0, {"failing": "F4"}),
    ]
    monkeypatch.setattr(acceptance, "run_all", lambda: results)


# name -> (argv, patch or None)
CASES = {
    "nu-single": (["nu", "--type", "E7"], None),
    "nu-list": (["nu", "--type", "G2,B2..B4,A1xC3"], None),
    "identity": (["identity", "--type", "G2,F4"], None),
    "series": (["series", "--order", "12"], None),
    "series-part": (["series", "--order", "10", "--part", "2"], None),
    "solomon": (["solomon", "--type", "A2,G2"], None),
    "solomon-points": (["solomon", "--type", "B2", "--points", "2,1/2;1/3,-1/2"], None),
    "steinberg": (["steinberg", "--type", "A2,B3"], None),
    "companion": (["companion", "--type", "B2,G2"], None),
    "expansion": (["expansion", "--type", "A2,B2"], None),
    "expansion-points": (["expansion", "--type", "A1", "--points", "1/2,-1/3"], None),
    "volume": (["volume", "--type", "B2,A1xA1", "--samples", "20000", "--seed", "11", "--workers", "2"], None),
    "partition": (["partition", "--type", "A2,G2", "--samples", "2000", "--seed", "7"], None),
    "steinberg-failing": (["steinberg", "--type", "A2,B3"], _shift_regular_character),
    "companion-failing": (["companion", "--type", "B3"], _shift_regular_character),
    "report-all-canned": (["report-all"], _canned_criteria),
    "cap-exceeded": (["solomon", "--type", "E6"], None),
    "unknown-type": (["nu", "--type", "Q9"], None),
    "product-not-irreducible": (["identity", "--type", "A1xA1"], None),
}

FORMATS = ("text", "json", "tsv")

# (name, format) -> (exit code, sha256 of stdout), recorded before the
# renderer was rewritten.
GOLDEN = {
    ("cap-exceeded", "text"): (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("cap-exceeded", "json"): (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("cap-exceeded", "tsv"): (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("companion", "text"): (0, "c550fb8f566a2180a30a2fe44167bb1e60880315282a7aceb468fe486759f6cd"),
    ("companion", "json"): (0, "2efc8c1548a3805aa2036731801ca076ec36301885f4089347e3c70516bc5185"),
    ("companion", "tsv"): (0, "4e61c072ddc16da8e376d958a4015977551159c0f71287d514a9711371b13194"),
    ("companion-failing", "text"): (1, "ef0cf45c8a29fd4a6e68de8c89b969ed2846b6bee1e7bf621be61e4f8f84e25e"),
    ("companion-failing", "json"): (1, "d4a94ba206cd3a8c9f9e2ceea47bffb38dd3a5c82048f9ab40d10d38e98c0fbc"),
    ("companion-failing", "tsv"): (1, "5376a823c08a2c64ed9cb5f9f11eaf70fe7f9be445b28bcaba5983c3f048b602"),
    ("expansion", "text"): (0, "c2e6dcb1ab27f5b8f3ec4e4a99a70ef58fc3fc6027bbc21cd78bc52712fb204e"),
    ("expansion", "json"): (0, "af8f79b69a97f8d8d526e6781f81e8d6f675ff24f1d8625720d9ab7af1c05d3d"),
    ("expansion", "tsv"): (0, "eaa01b60167d91a8c588b47d7431852fdd96d9f67db67989b220400e8e593fb7"),
    ("expansion-points", "text"): (0, "c0e8933a7c4b0964a7bf0b6ea4cc8d2d50bc2cdbb4f8a9d0aa568921b8912221"),
    ("expansion-points", "json"): (0, "d40cd989af5e2c9ddd59695dfce20e5d12bfdb65cdf9f85c9be83f0fc8f5292c"),
    ("expansion-points", "tsv"): (0, "6f45be01e95eb429fc1643586161218d1c73ea93169ac87d12735d6903d3db64"),
    ("identity", "text"): (0, "6d0a0884db745bfaaa688b884673d2a41c4f8ab036a6e1602824977a9d8e9e9e"),
    ("identity", "json"): (0, "5927ae28ff195b5e4c7aae381e1f0a564c398903dc4618cc923c8943dde00bd3"),
    ("identity", "tsv"): (0, "23b8803ac59a56d7fcc3f9589628e3cb8fe08dddd2bbb3a952d5df0ba32f7d76"),
    ("nu-list", "text"): (0, "5bf6ed6e5fb465d615bffa576c68d648b4bfbdd50decbff86fb246f0e6d2959a"),
    ("nu-list", "json"): (0, "906e2e3e6f64b605162e6acc2018de40981d5b2c81776268b09e65a0b9439d74"),
    ("nu-list", "tsv"): (0, "1756910679ab81aa7bfb12d659c98274244079a0752e5f6d1f961eafd3f06399"),
    ("nu-single", "text"): (0, "0cc29085cfb5be6209453e4c08710af9dc58a77aac412452b89b78ffc70f5e62"),
    ("nu-single", "json"): (0, "28e82dfa7d896dde7d988dd885edb86038d28d23719b9d7814d4e148cc7666c6"),
    ("nu-single", "tsv"): (0, "771c140ae6f7ae3b453c1e0a6b331c2ebb34c9f5d4e6ca73bbf507ead9e27396"),
    ("partition", "text"): (0, "c431b49fbfc8ffbafd6fb364d2ce0c779828baeb9194f5ab343d1133e70c6bf8"),
    ("partition", "json"): (0, "97d95fd1b6a0344005030579f0f0b4e89f712c083bafbebaa3b1060ee885eeac"),
    ("partition", "tsv"): (0, "2a0dfd359b587591802f1c062a1a8fe042d55eec0b0317a587c8582c4e1f473e"),
    ("product-not-irreducible", "text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("product-not-irreducible", "json"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("product-not-irreducible", "tsv"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("report-all-canned", "text"): (1, "be246156e1b12745d54b0f0bb320a2ac568c3b04e513f1dafcd829daa811dbb0"),
    ("report-all-canned", "json"): (1, "f50b8912236d0308d8c1c7a9c41ed48e0e9dff40c4af2c78fa783e970c7bfb65"),
    ("report-all-canned", "tsv"): (1, "53613cc44f467fa91bf457f85fb5a3cd68a5359c550130a8c9bb02d2a1603fde"),
    ("series", "text"): (0, "bedf8b2773cb91e33fbb758f6246144a4773b54253d016ab706dd0fca41681ca"),
    ("series", "json"): (0, "3f51a338d7e0f276973395280f5777a2ec5268d89bdb8a7c55446f05e5d4620b"),
    ("series", "tsv"): (0, "2464d0b19c3955ffc415b2a14f81cb60341bcd544e7a8e4a730106175ef84129"),
    ("series-part", "text"): (0, "4f170e9c28725b3af8e0ece303d2bbb79856683238f40d24a50f7ff77f3fad14"),
    ("series-part", "json"): (0, "454ba18fba37ccf2c04e599d1dbe6e971ab8c178ebff10f87fdb2ad752dd7955"),
    ("series-part", "tsv"): (0, "da3fd6cf4a72097303470f9416a9ec328337c3e386d2105b7eaccdcec40ebfd9"),
    ("solomon", "text"): (0, "5d23434bcc4cd242f296a7f55e7c5f63ea4147f44e2a16855cf89354a8e51a58"),
    ("solomon", "json"): (0, "c20007d5503bf05ad1050b4f79e9413bc66f79765798fa247a6eeffce7a35e83"),
    ("solomon", "tsv"): (0, "f89ceabe54ea058aefa7bdd42abda20328feb9027833076aa362e867b7e32f26"),
    ("solomon-points", "text"): (0, "66791e837639282fe5532ac3f953bdbcd1a0c77dec673ccccf29967bedddd8a1"),
    ("solomon-points", "json"): (0, "eb540d8985a866145682047b2c0d452580ae4280656a6181f1d440a5be1ffd52"),
    ("solomon-points", "tsv"): (0, "101bbc6d3fc26f029451ffddb5c799dadb64313b95f14ca15235978d649b32f0"),
    ("steinberg", "text"): (0, "4534e8a29e423509b0bb3639f913dd8fbb89821539e5a02e05b12c8cc1fa5c42"),
    ("steinberg", "json"): (0, "bf5ccf73c328e0a70cd6515392f36ac78689add490b64ec901fa25e54f5a16b5"),
    ("steinberg", "tsv"): (0, "7cf8d6da514e202f35a0b641f172f894467f6331500198b42cf53ccd343fd72e"),
    ("steinberg-failing", "text"): (1, "c2c59faae41b8db1a0267113b49d67bcd63097855f0fa82b52a06d019970ec6a"),
    ("steinberg-failing", "json"): (1, "0152d63d041a5845c05e60641872213662f8409c05459cbb741b4b25a4002c83"),
    ("steinberg-failing", "tsv"): (1, "cee46e0a1aa16a5d91e68cecf14fb127eee7ed3b46f6e0fdc313ec80bff42520"),
    ("unknown-type", "text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("unknown-type", "json"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("unknown-type", "tsv"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("volume", "text"): (0, "5c95d8834770c4fbe88eedb56c84b9a524a4a89190a048405db69c9cb90be22e"),
    ("volume", "json"): (0, "8c9ba601d758122491b2db0e0232bcd1c7ecde3d1d396e84ec6479a8d2403775"),
    ("volume", "tsv"): (0, "43895d2df89440e3959d55b2f4a2c74dd5de10e68f43d981ea01ebb5bd2679da"),
}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_bytes_are_golden(monkeypatch, capsys, name, fmt):
    argv, patch = CASES[name]
    if patch is not None:
        patch(monkeypatch)
    code = cli.main([*argv, "--format", fmt])
    captured = capsys.readouterr()
    digest = hashlib.sha256(captured.out.encode("utf-8")).hexdigest()
    assert (code, digest) == GOLDEN[name, fmt]
    if code in (2, 3):
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    else:
        assert captured.err == ""
