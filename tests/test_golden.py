"""Byte-for-byte pins of CLI output on fixed inputs.

Each digest is the sha256 of one output file as the CLI writes it.  A
refactor that keeps every verdict, polynomial and formatting choice keeps
every digest; any other change shows up here first.
"""

import hashlib
import json

import pytest

from ctrlgraph import cli

from conftest import DATA_DIR

CENSUS = {
    1: (
        "66dfe3324fe9a4465d456f2f0d4e01c208bd80dfe6a64e815afba5816ef5dfa2",
        "7f9a8392cc468a214b128f0bbd2f653b4b1414aa7ac54cb0948fef74a323d8a6",
    ),
    2: (
        "0fc2bf51761017c4936c3c6b44e11e3bd147c9158f5466c9ecb9b1035e8d4ad5",
        "95cc566da311f03b5a392d8fbbaac986cc916da157cd8e7f37ae8db99cc2eb56",
    ),
    3: (
        "8c3c7222ebde639ef2e0965622637489aaddbecd2e61166fa4336187644b4521",
        "cfa30cc5234947af365383f8deb97daf55273d7b3cf82e61442e460ca1fe171f",
    ),
    4: (
        "6e2b012ebe297bc3e600d719c81920e0d9de560413b1e7f243425f5bbfc96512",
        "f9d795561ca346440b4683211d46b7064fc935fa2e31fb7525474649af9b2331",
    ),
    5: (
        "4f7477ae01aeb9707f94cb2cf76640748d8400438c73ee27645c95eb2fa03fa0",
        "ddbdf30d8673b2cd07aca5966de423f9d4ad381dbe3adb78385fde6c62db0ae7",
    ),
    6: (
        "0461ba37a03f5cc513f0d921362b3b563c9797a422dac149bc6a95dab9d9dd1b",
        "485d8b8db3edf2ba605039b33926f2ead09625b06bad4e730272a4c786528f80",
    ),
    7: (
        "055c8247681eba37aa067045643abeaece3d6c87a5a6346cd777de08951a2542",
        "ce1217a849e415af21f6a24085ab5add40c3207bdf5a0cebc579b829219ae003",
    ),
}

# census --format json, the default format: rows and summary in one document
CENSUS_JSON = {
    1: "cca63716590566ecdaf89df3bfa1fc9f69de7d64e71b50976f0769b02b7aa529",
    2: "d84373000161d7a59c7d71cd2e634ffd4ddac2862a4f51ffad26eb441b5d7599",
    3: "e348c7b2e374b3e4efff58992b15dbb679871110dd089ed4a22f32fa05d940b9",
    4: "32910a943264fd108a693b3f955e1e286448318e587013083f2359748e1d6432",
    5: "d7338aa7c49904de3117331829a77da0f26f521a044b0c6b54451ed08e0d4791",
    6: "31697b50014a7ed6e38acedc1c5aa09ed6efbaa3d1d9bc6be0bfb3e6111af2f0",
    7: "953f6aee0a315a47465271bcf7fb2d56a7dfb09f96d0c88e2503f3adde325691",
}

# census --mode full and --mode vertices, one column group each
FULL = {
    1: (
        "df9ae24c0633998ed4a33dde0269c6fe17290d6f7e3b1cde0e9216187b6525b4",
        "769e400bfd994832c3fbb22a76578afba5991e13d39787125d3124e0c3cb6631",
    ),
    2: (
        "cfd34961487849c61e85ff0636fe94c0307a73717260b0d8ee5d186b476266ca",
        "05b5601bac51aa09b90e61e0ea718a7079e14a5ec64e94dc30b14ff9f4fb487c",
    ),
    3: (
        "d88ca9f9df00b07508d34f2d71ff75052e7c270933f810a9670df8c589f35258",
        "28763eed10f9c0839127b626382b3d1194a4bcd8a30b6f8fd20b98464949efbd",
    ),
    4: (
        "8b3d6e9bdc590030484064d67510bf74129b8322d350952227a5ef93f4cd2cf7",
        "2a91a6c857a2f0494d0be5424fe58e5ef1425c5baa2ab4326814f65974b9b568",
    ),
    5: (
        "7b8eb82d69577608d8c2d58c01912799d8f7938938a8751a02371919c09d4abb",
        "6a1862c947b35945748302cc892ae56f44a5e4c841c71a96294adce213716aed",
    ),
    6: (
        "b604994359c3ee90a714b4d9e274968ec8529d02c06a6be5bd7a1b6114680a63",
        "fb5382bc8dadc5da5ea36496799f0f413fbd226c2029640682c4683e1e2da21f",
    ),
    7: (
        "5ff201abea14c3b66024ecf2082de6c7e792c8eccc4aa0c10866e5d5aea621fa",
        "71189b6b54b28cf531991c56abc89e4beb5adb58c2c4c586916570af03148fec",
    ),
}

VERTICES = {
    1: (
        "e6451fdc1065673a964cf51185ff2ebfa02613a25743b4295b63ce51df16b94c",
        "45e267d8d878c5062168afe84a8748271fe935a5586cf264fa872e3b2670c505",
    ),
    2: (
        "e92e44b6b537c7e6e17f1789e6a5673ef75f552acf44c673cdf13bfcf88b3868",
        "95cc566da311f03b5a392d8fbbaac986cc916da157cd8e7f37ae8db99cc2eb56",
    ),
    3: (
        "58a7688e0ad48d1c6706ebecc96bdf0980816c75edf3135e6ff6a78397fdcc05",
        "cfa30cc5234947af365383f8deb97daf55273d7b3cf82e61442e460ca1fe171f",
    ),
    4: (
        "817e4c8ea1878942779dc5182017ec20e5372e33ce345bb6adc1b7a4cbd1bd30",
        "f9d795561ca346440b4683211d46b7064fc935fa2e31fb7525474649af9b2331",
    ),
    5: (
        "a3b34269277dfb807178bff8c8c8d3f5f34099e4229cf014d7e730d2d696e399",
        "ddbdf30d8673b2cd07aca5966de423f9d4ad381dbe3adb78385fde6c62db0ae7",
    ),
    6: (
        "1c16335966b12ec1c8884151c5c2ceee0ba1c101d20e8ff604140bd9ff02f118",
        "19d25ec0b2c01d44771fa2ed42149b3e5a729463724da65327b2faade2c2ace8",
    ),
    7: (
        "b775dea6e39385f5ed96ea93e2e0a6dde6dfd3607366c3de8e38fdbd59ed2ccf",
        "d7dae2add7f60c683d2228fc5f9ee8b607864c0e3bd2a133d818944c931c628d",
    ),
}

ANALYZE = {
    "DhC": "d786f8c4127ae192b418ded11b49c8ace302c10e021c0af9ab3dd0490efa38c1",
    "EQjo": "556d7fb59108337fd3a1fc5d6b618caefd4fdaa4d6759f6883c20d0bfdcf689e",
    "FCrUW": "b63e40fd7dfcb38467f9a7b1299a25140650a086ca60d3e4d45d9bb499be229d",
    # a backslash in the graph6 string, escaped in the JSON document
    "FCZ\\o": "1895a8c01e1aea21754c7e554d07624c9c3a4bff4ae9e0ca3c33f5cf74e993ff",
}

# analyze --subset vertices: the many-pair path with singletons alone
ANALYZE_VERTICES = {
    "DhC": "a02025b8bc137f7227577239b33736f7dd8d001d3c71e3c2dc297ba401fe1186",
    "EQjo": "3847b0e2e16edf9142b71ccf50320f3fb17d0d8207b3dbd7c9f7ce04753c0fff",
    "FCrUW": "695c49d021f15b75eda39557ab70a999f9206041a90209e9ce47e82d5ca8c751",
    "FCZ\\o": "0ef30048e672a233b178bc287ef8acd60676e6597f286b5f7aade206175d9775",
    # C8, whose phi has repeated roots
    "GhCGKC": "89256045ad6a7de378727a31b0c41d63d58623556923a30bd859895a98251bdc",
}

ISOCHECK_ARGS = ["F?`e_", "1", "FB_`O", "6"]
ISOCHECK = "c16579b4468bbaaad8f47db7e580601b4c8c2e86d659f400d93ffa2bce58c40d"

LTI_SPEC = {
    "a": [[0, 1, 0], [2, 0, -1], [1, 1, 1]],
    "b": [1, "1/2", 0],
    "c": ["1/3", 0, 1],
    "x0": ["2/3", -1, "5/7"],
    "inputs": [1, 0, "-1/2", 3, 0, 0, 1, "2/5", 0, 0],
    "order": 9,
    "recover": {"outputs": [1, "-1/2", "7/3"], "m": 2},
}
LTI = "9a698af7f8613ea9461acc6483e3fa012babe9ba41e1c1fdf2d47771a88c87c3"

SUBSETS = {
    5: (
        "e95c7d5e415329558f72e0ff7e755d6fe7936a248c2f5651ba302542528a10f5",
        "6a1862c947b35945748302cc892ae56f44a5e4c841c71a96294adce213716aed",
    ),
    6: (
        "af51579fd3292c9b3a75554fcdfeeb3e22f7f6c6254bc3f87b0c85b424dd23b0",
        "be1a8f842ecac610a48c5c684c6a1405b8c8b471837d37a1dcfbe07e08c81194",
    ),
    7: (
        "83b0c694f2b25cf7e2f92d214699f78e7d27d97d1d6f3500be20b330278d0978",
        "dc7752c9af404e931e7866ae052447b0de449b9440dc416e2d3e17543c204a87",
    ),
}


def digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def census_digests(tmp_path, source, *extra, workers=1):
    csv, summary = tmp_path / "out.csv", tmp_path / "summary.json"
    code = cli.main(
        ["census", "--input", str(source), "--format", "csv",
         "--workers", str(workers),
         "--out", str(csv), "--summary-out", str(summary), *extra]
    )
    assert code == cli.EXIT_OK
    return digest(csv), digest(summary)


def command_digest(tmp_path, argv) -> str:
    out = tmp_path / "out.json"
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_OK
    return digest(out)


@pytest.mark.parametrize("n", range(1, 8))
def test_census_bytes(tmp_path, n):
    assert census_digests(tmp_path, DATA_DIR / f"graphs{n}.g6") == CENSUS[n]


@pytest.mark.parametrize("n", range(1, 8))
def test_census_json_bytes(tmp_path, n):
    argv = ["census", "--input", str(DATA_DIR / f"graphs{n}.g6"), "--workers", "1"]
    assert command_digest(tmp_path, argv) == CENSUS_JSON[n]


@pytest.mark.parametrize("mode,pins", [("full", FULL), ("vertices", VERTICES)])
def test_census_mode_bytes(tmp_path, mode, pins):
    for n, want in pins.items():
        source = DATA_DIR / f"graphs{n}.g6"
        assert census_digests(tmp_path, source, "--mode", mode) == want, n


def test_census_bytes_at_two_workers(tmp_path):
    # the pool emits rows in input order: same bytes as one worker
    digests = census_digests(tmp_path, DATA_DIR / "graphs6.g6", workers=2)
    assert digests == CENSUS[6]


def test_census_subsets_bytes(tmp_path):
    # the bitmask-indexed subset sums must give the bytes of one rank test
    # per subset
    for n, pins in SUBSETS.items():
        source = DATA_DIR / f"graphs{n}.g6"
        assert census_digests(tmp_path, source, "--mode", "subsets") == pins, n


def test_census_subsets_bytes_at_two_workers(tmp_path):
    source = DATA_DIR / "graphs7.g6"
    digests = census_digests(tmp_path, source, "--mode", "subsets", workers=2)
    assert digests == SUBSETS[7]


@pytest.mark.parametrize("graph6", sorted(ANALYZE))
def test_analyze_all_bytes(tmp_path, graph6):
    assert command_digest(tmp_path, ["analyze", graph6, "--subset", "all"]) == ANALYZE[graph6]


@pytest.mark.parametrize("graph6", sorted(ANALYZE_VERTICES))
def test_analyze_vertices_bytes(tmp_path, graph6):
    argv = ["analyze", graph6, "--subset", "vertices"]
    assert command_digest(tmp_path, argv) == ANALYZE_VERTICES[graph6]


def test_isocheck_bytes(tmp_path):
    assert command_digest(tmp_path, ["isocheck", *ISOCHECK_ARGS]) == ISOCHECK


def test_lti_bytes(tmp_path):
    spec = tmp_path / "sys.json"
    spec.write_text(json.dumps(LTI_SPEC))
    assert command_digest(tmp_path, ["lti", str(spec)]) == LTI
