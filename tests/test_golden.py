"""Golden digests of the offline outputs.

``generate`` for the five families (8-10 nodes, 2 per size, seed 7),
then stub ``solve`` and stub ``solve-direct`` on that dataset: the sha256
of every file they write is pinned below.  Any change to a rendered
sentence, a record's layout or an answer fails here.  A change that
alters these bytes on purpose updates the digests and says why.
"""

import hashlib

from click.testing import CliRunner

from graphcrew.cli import main
from graphcrew.problems import PROBLEM_TYPES

GOLDEN = {
    "data/cycle_detection.jsonl":
        "35b0a69f7a719e0b2951d6a8470ff3eb81ce91b4302cfc13860055c6eacf0716",
    "data/cycle_detection.text.jsonl":
        "519fc0ab598c14dee2ae016ccd44bc8239ccdf9ccf6a412a8190cbdcaf11db15",
    "data/graph_coloring.jsonl":
        "49e93c14c46ebdbf18d8c80a175f2fbdbedcf51fbe595183b5c94c759a0ccb23",
    "data/graph_coloring.text.jsonl":
        "6fff3be459e10c3be448702a17a7a40a2dde397e2c5ae88c232b0c3a74285808",
    "data/manifest.json":
        "5abcd91fa6fef616b40c3a825bc4f88ec2cf3c3b4570a619757bce9d3e86fe79",
    "data/shortest_path.jsonl":
        "e4baf3291c35b184388a4a83e3d74ecd1e92e6585e5993441f2e9dca2ad98809",
    "data/shortest_path.text.jsonl":
        "efbfb827ec2bae9ed70bba814f3bf946f4d6416ff9feb8528f2744231e3a9488",
    "data/tsp.jsonl":
        "ae266b63a9d7a006e48d05be3d9c76129100be8a0c6ee760e1a652a5049f927e",
    "data/tsp.text.jsonl":
        "ecf585a9aae19b8482dd208252d7dce38dc63f6f0cb6d207edcaf08f29f8856d",
    "data/vertex_cover.jsonl":
        "209ac3c860b13fb1d45cc005aaaa09e7f08f22a3c2923ec36a9fa12c8743e291",
    "data/vertex_cover.text.jsonl":
        "c6973e68147330aea9a430a64eb3ebba8e76c99c0d0b23e713e558c6d615cd65",
    "results/cycle_detection.direct.jsonl":
        "07cc9ae02c534e88e06ffc013791f650b1ed3cde6456b106fc31049935db5ecc",
    "results/cycle_detection.solve.jsonl":
        "44419e6bd43c2a525c679c20ee65810a459ec26c5d4a3ce97107f214f7ddadd1",
    "results/graph_coloring.direct.jsonl":
        "4d4c78dbe01b401ff0c55d2538de406fe4d146fdef1ed90c153c84a6bf5f5e09",
    "results/graph_coloring.solve.jsonl":
        "f51728950b2e338c9e4e8227f208f3ea5f40bed6870a232d324bcb6e45d1fae6",
    "results/shortest_path.direct.jsonl":
        "0a8d1f6636d225bf48637703de8b4933a5e2ac458a2124525ed87226a2bd8aee",
    "results/shortest_path.solve.jsonl":
        "59a67d2cd83c612776ef63a7050f1d7b1b91fcc4fcda130b784185209fafbf67",
    "results/tsp.direct.jsonl":
        "462a8a7d04a8aae45ae46eece19e6c32100c4ca7eba99d94848a91891059f5a1",
    "results/tsp.solve.jsonl":
        "a07a8bcf9bcc662e6d4f4dfdcbecf77ec70bfd541b54114162acfb108da41e7a",
    "results/vertex_cover.direct.jsonl":
        "40e113d5251897063ac4145ca7e244bc97b94decc8e091c8507a3473cd15f509",
    "results/vertex_cover.solve.jsonl":
        "f9ffcc9f0ea0554c32e7a7de0f5fbbe3b47246adaa46abfa3b82819924477def",
}


def test_offline_outputs_match_their_golden_digests(tmp_path):
    runner = CliRunner()
    data, results = tmp_path / "data", tmp_path / "results"
    config = tmp_path / "stub.yaml"
    config.write_text("kind: stub\n")

    def run(*args):
        result = runner.invoke(main, [*map(str, args)])
        assert result.exit_code == 0, result.output

    run("generate", *(arg for family in PROBLEM_TYPES for arg in ("--type", family)),
        "--sizes", "8-10", "--per-size", "2", "--seed", "7", "--out", data)
    for family in PROBLEM_TYPES:
        dataset = data / f"{family}.jsonl"
        run("solve", "--dataset", dataset, "--backend-config", config, "--concurrency", "1",
            "--out", results / f"{family}.solve.jsonl")
        run("solve-direct", "--dataset", dataset, "--backend-config", config,
            "--concurrency", "1", "--out", results / f"{family}.direct.jsonl")
    digests = {path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(tmp_path.rglob("*.j*"))}
    assert digests == GOLDEN
