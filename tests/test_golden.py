"""Golden digests of the offline outputs.

``generate`` for the five families (8-10 nodes, 2 per size, seed 7),
then stub ``solve`` and stub ``solve-direct`` on that dataset, then
``evaluate`` of each results file: the sha256 of every file they write
is pinned below.  Any change to a rendered
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
    "scores/cycle_detection.direct/report.txt":
        "f93466aa88bf1570e22e9efb9115d849a6195f76afa8aa294ead48ba8b5e47ea",
    "scores/cycle_detection.direct/scores.jsonl":
        "5b703e1a879699100d051d45382b3bfa2bcf06819bf33e8dc7b4c4e56ad46b16",
    "scores/cycle_detection.solve/report.txt":
        "93238a2da7bd9d4061adda7e9a6a9f59de20a6ff7f4b0d3bf03b1ef2697cd5ff",
    "scores/cycle_detection.solve/scores.jsonl":
        "5b703e1a879699100d051d45382b3bfa2bcf06819bf33e8dc7b4c4e56ad46b16",
    "scores/graph_coloring.direct/report.txt":
        "a402fa752e4ecf1af84bdf6562844cfd49faf311e5d54801c02d6cfc0584f8cd",
    "scores/graph_coloring.direct/scores.jsonl":
        "aac6c3b2e491d6315efb693a3e1d98a18607dd4485cb4ab95dc012f5b705fef4",
    "scores/graph_coloring.solve/report.txt":
        "671080470d3858e3e39cb10366ad0b000aa69a001a599fc80612a74fb2cb0354",
    "scores/graph_coloring.solve/scores.jsonl":
        "aac6c3b2e491d6315efb693a3e1d98a18607dd4485cb4ab95dc012f5b705fef4",
    "scores/shortest_path.direct/report.txt":
        "eafca79aca3d75a478734099fd07b945469951d856926629e0e183f424f4b577",
    "scores/shortest_path.direct/scores.jsonl":
        "7c067352211a855f500096e04b0dd42f0c1a4d4d4de2cdfc31a8cc013e847e8d",
    "scores/shortest_path.solve/report.txt":
        "df57efd4d3e4cc08cb9a97d99ff948019db153183ec41dac6aa0263316681d65",
    "scores/shortest_path.solve/scores.jsonl":
        "7c067352211a855f500096e04b0dd42f0c1a4d4d4de2cdfc31a8cc013e847e8d",
    "scores/tsp.direct/report.txt":
        "a6487403b2879d88da2f041ee522f5c4f5a3d5af727d2b80171bc38c336fca96",
    "scores/tsp.direct/scores.jsonl":
        "c545ab3ec078b3c61ced09b5f72c84961564d6c93d03a97ea828924c35eb1b2b",
    "scores/tsp.solve/report.txt":
        "a83e79990d825818ad6eb61ca7670578f80d72b2bc3bd19384d90f4391e43045",
    "scores/tsp.solve/scores.jsonl":
        "c545ab3ec078b3c61ced09b5f72c84961564d6c93d03a97ea828924c35eb1b2b",
    "scores/vertex_cover.direct/report.txt":
        "9e61340c449b3742b8483d88c70b581e76d9d3301efc10da56bed15b59f60f81",
    "scores/vertex_cover.direct/scores.jsonl":
        "b6d109c2fded87ebfdc36621af9b11a72ea15890c20719dc5965232c63d9167a",
    "scores/vertex_cover.solve/report.txt":
        "4a8f108d0072f378484b5f804caae903d9dce00b8648fae2dd44f21e7f4ca4ea",
    "scores/vertex_cover.solve/scores.jsonl":
        "b6d109c2fded87ebfdc36621af9b11a72ea15890c20719dc5965232c63d9167a",
}


def test_offline_outputs_match_their_golden_digests(tmp_path):
    runner = CliRunner()
    out = tmp_path / "out"
    data, results, scores = out / "data", out / "results", out / "scores"
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
        for arm in ("solve", "direct"):
            run("evaluate", "--results", results / f"{family}.{arm}.jsonl", "--dataset", dataset,
                "--out", scores / f"{family}.{arm}")
    digests = {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(out.rglob("*")) if path.is_file()}
    assert digests == GOLDEN
