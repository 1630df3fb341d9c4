"""Command-line interface: outputs, determinism and exit codes."""

import json
from importlib import resources

import pytest
from click.testing import CliRunner

from spinelab import catalog, report
from spinelab.cli import main
from spinelab.equivariant import ZpGraph


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory, runner):
    path = tmp_path_factory.mktemp("corpus") / "corpus.json"
    result = runner.invoke(main, ["spine", "census", "--out", str(path)])
    assert result.exit_code == 0, result.output
    return path


def test_census_round_trip(corpus_path):
    raw = corpus_path.read_text()
    assert report.dumps(json.loads(raw)) == raw


def test_verify_tables_passes(runner, corpus_path):
    result = runner.invoke(main, ["spine", "verify-tables", str(corpus_path)])
    assert result.exit_code == 0, result.output


def test_verify_tables_detects_corruption(runner, corpus_path, tmp_path):
    data = json.loads(corpus_path.read_text())
    for cell in data["cells"]:
        if cell["dim"] == 1:
            cell["isotropy_order"] = 7
            break
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    result = runner.invoke(main, ["spine", "verify-tables", str(bad)])
    assert result.exit_code == 1


def test_verify_tables_detects_component_mismatch(runner, corpus_path, tmp_path):
    data = json.loads(corpus_path.read_text())
    for cell in data["cells"]:
        cell["faces"] = []
    bad = tmp_path / "no_faces.json"
    bad.write_text(json.dumps(data))
    result = runner.invoke(main, ["spine", "verify-tables", str(bad)])
    assert result.exit_code == 1
    assert "components mismatch" in result.output


@pytest.mark.parametrize("face", [10**6, "x", -1])
def test_verify_tables_bad_face_index_is_config_error(runner, corpus_path, tmp_path, face):
    data = json.loads(corpus_path.read_text())
    data["cells"][-1]["faces"] = [face]
    bad = tmp_path / "bad_face.json"
    bad.write_text(json.dumps(data))
    result = runner.invoke(main, ["spine", "verify-tables", str(bad)])
    assert result.exit_code == 2
    assert result.output.startswith("error: malformed corpus")


def test_verify_tables_huge_vertex_count_is_config_error(runner, corpus_path, tmp_path):
    data = json.loads(corpus_path.read_text())
    data["graphs"][0]["graph"]["vertices"] = 2**70
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(data))
    assert_input_error(
        runner.invoke(main, ["spine", "verify-tables", str(bad)]),
        "malformed corpus: ValueError: every vertex must be the target of a dart",
    )


def test_verify_tables_missing_file_is_config_error(runner, tmp_path):
    result = runner.invoke(main, ["spine", "verify-tables", str(tmp_path / "no.json")])
    assert result.exit_code == 2


def test_verify_tables_malformed_corpus_is_config_error(runner, tmp_path):
    bad = tmp_path / "malformed.json"
    bad.write_text(json.dumps({"graphs": []}))
    result = runner.invoke(main, ["spine", "verify-tables", str(bad)])
    assert result.exit_code == 2
    assert result.output.startswith("error: malformed corpus")
    assert len(result.output.strip().splitlines()) == 1


def test_report_deterministic(runner):
    first = runner.invoke(main, ["spine", "report", "--markdown"])
    second = runner.invoke(main, ["spine", "report", "--markdown"])
    assert first.exit_code == 0
    assert first.output == second.output
    assert "| R4 | 1 | 4 | 384 |" in first.output


def test_markdown_report_off_rank_4_is_config_error(runner):
    result = runner.invoke(main, ["spine", "report", "--rank", "3"])
    assert result.exit_code == 2
    assert "rank 4" in result.output
    assert len(result.output.strip().splitlines()) == 1
    result = runner.invoke(main, ["spine", "report", "--rank", "3", "--json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["rank"] == 3


def test_cells_lists_three_cells(runner):
    result = runner.invoke(main, ["spine", "cells", "--dim", "3"])
    assert result.exit_code == 0
    assert len(result.output.strip().splitlines()) == 3


def test_classify_counts(runner, tmp_path):
    out = tmp_path / "classes.json"
    result = runner.invoke(main, ["equiv", "classify", "--p", "5", "--out", str(out)])
    assert result.exit_code == 0
    assert len(json.loads(out.read_text())) == 5


def test_equiv_expand_round_trip(runner, tmp_path):
    g, action = catalog.wedge_diagonal(3)
    zg = ZpGraph(g, action, 3)
    path = tmp_path / "wedge.json"
    path.write_text(json.dumps(zg.to_json()))
    result = runner.invoke(main, ["equiv", "expand", "--input", str(path)])
    assert result.exit_code == 0, result.output
    pairs = json.loads(result.output)
    assert len(pairs) == 1
    assert len(pairs[0]["forest"]) == 3


def test_equiv_expand_p5_wedge(runner, tmp_path):
    g, action = catalog.wedge_diagonal(5)
    path = tmp_path / "wedge5.json"
    path.write_text(json.dumps(ZpGraph(g, action, 5).to_json()))
    result = runner.invoke(main, ["equiv", "expand", "--input", str(path)])
    assert result.exit_code == 0, result.output
    pairs = json.loads(result.output)
    assert len(pairs) == 1
    assert len(pairs[0]["forest"]) == 5


def test_equiv_expand_negative_budget_is_config_error(runner, tmp_path):
    g, action = catalog.wedge_diagonal(3)
    path = tmp_path / "wedge.json"
    path.write_text(json.dumps(ZpGraph(g, action, 3).to_json()))
    result = runner.invoke(main, ["equiv", "expand", "--input", str(path), "--budget", "-1"])
    assert result.exit_code == 2
    assert "budget" in result.output
    assert len(result.output.strip().splitlines()) == 1


def test_equiv_nielsen_reports_moves(runner, tmp_path):
    g, action = catalog.rose_rotation(3, 4)
    path = tmp_path / "rose.json"
    path.write_text(json.dumps(ZpGraph(g, action, 3).to_json()))
    result = runner.invoke(main, ["equiv", "nielsen", "--input", str(path)])
    assert result.exit_code == 0
    assert json.loads(result.output)


def test_equiv_bad_input_is_config_error(runner, tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    result = runner.invoke(main, ["equiv", "nielsen", "--input", str(path)])
    assert result.exit_code == 2


def test_component_and_corollary(runner):
    result = runner.invoke(main, ["coh", "component", "--which", "theta11", "--max-degree", "12"])
    assert result.exit_code == 0
    assert "| 3 | 1 |" in result.output
    result = runner.invoke(main, ["coh", "corollary12", "--max-degree", "12"])
    assert result.exit_code == 0
    assert "closed form" in result.output


def test_thm14_fixture(runner):
    result = runner.invoke(main, ["coh", "thm14", "--p", "3", "--max-degree", "12"])
    assert result.exit_code == 0
    assert "identity holds" in result.output


def test_series_command(runner):
    result = runner.invoke(main, ["coh", "series", "--which", "metacyclic", "--p", "5", "--max-degree", "16"])
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "(1+t^7)/(1-t^8)"


def test_max_degree_env_override(runner, monkeypatch):
    monkeypatch.setenv("SPINELAB_MAX_DEGREE", "11")
    result = runner.invoke(main, ["coh", "series", "--which", "sigma3"])
    assert result.exit_code == 0
    assert len(result.output.splitlines()[1].split()) == 12


def test_max_degree_flag_wins_over_env(runner, monkeypatch):
    from spinelab import verification

    seen = []
    monkeypatch.setattr(verification, "run_all", lambda config: seen.append(config) or [])
    monkeypatch.setenv("SPINELAB_MAX_DEGREE", "12")
    result = runner.invoke(main, ["verify", "all", "--max-degree", "20"])
    assert result.exit_code == 0, result.output
    assert seen[0].max_degree == 20


VERIFY_ALL_P3 = """\
PASS  census-17-classes: 17 classes
PASS  cells-tables: cells [24, 13, 3], duplicated pair x2
PASS  components: counts [1, 7, 9], rose reduced homology [0, 0, 0, 0]
PASS  equalizer-series: dims<=8 (1, 0, 0, 1, 1, 0, 0, 3, 3)
PASS  free-module-and-relations: free=True, relations=[True, True, True, True, True, True]
PASS  corollary-sum: total<=10 (3, 0, 0, 3, 3, 0, 0, 5, 5, 0, 2)
PASS  wreath-invariants: dims_ok=True fixed=True independent=True
PASS  reduced-classification: p=5: 5, p=7: 6
PASS  nielsen-closures: singletons=True disjoint=True rank2-moves=0
PASS  expansions: p=3: unique=True star=True terminal=True; p=5: unique=True star=True terminal=True
PASS  metacyclic-cohomology: p=3: degrees=[3, 4]; p=5: degrees=[7, 8]; p=7: degrees=[11, 12]
PASS  recursion-pipeline: p3 degenerate=True, p5 synthetic=True
PASS  property-suites: rank=True canonical=True orbit-stabilizer=True d2=True
"""


VERIFY_ALL_P5 = """\
PASS  reduced-classification: p=5: 5
PASS  nielsen-closures: singletons=True disjoint=True rank2-moves=0
PASS  expansions: p=5: unique=True star=True terminal=True
PASS  metacyclic-cohomology: p=5: degrees=[7, 8]
"""

VERIFY_ALL_P7 = """\
PASS  reduced-classification: p=7: 6
PASS  nielsen-closures: singletons=True disjoint=True rank2-moves=0
PASS  expansions: p=7: unique=True star=True terminal=True
PASS  metacyclic-cohomology: p=7: degrees=[11, 12]
"""


@pytest.mark.parametrize(
    "args,want",
    [([], VERIFY_ALL_P3), (["--p", "5"], VERIFY_ALL_P5), (["--p", "7"], VERIFY_ALL_P7)],
    ids=["p3", "p5", "p7"],
)
def test_verify_all_prints_its_suite(runner, args, want):
    result = runner.invoke(main, ["verify", "all", *args])
    assert result.exit_code == 0, result.output
    assert result.output == want


def test_verify_all_at_q_checks_only_q(runner, monkeypatch):
    from spinelab import verification

    seen = {}

    def spy(name, prime_of):
        real = getattr(verification, name)

        def wrapped(*args):
            seen.setdefault(name, set()).add(prime_of(*args))
            return real(*args)

        monkeypatch.setattr(verification, name, wrapped)

    spy("classify_reduced", lambda p: p)
    spy("nielsen_closure", lambda zg: zg.p)
    spy("equivariant_expansions", lambda zg, budget: zg.p)
    spy("cohomology_of_metacyclic", lambda p, m: p)
    result = runner.invoke(main, ["verify", "all", "--p", "7"])
    assert result.exit_code == 0, result.output
    assert seen == {
        name: {7}
        for name in (
            "classify_reduced",
            "nielsen_closure",
            "equivariant_expansions",
            "cohomology_of_metacyclic",
        )
    }


def test_verify_all_has_no_rank_option(runner):
    result = runner.invoke(main, ["verify", "all", "--rank", "3"])
    assert result.exit_code == 2
    assert "No such option '--rank'" in result.output


def test_max_degree_env_not_an_integer_is_config_error(runner, monkeypatch):
    monkeypatch.setenv("SPINELAB_MAX_DEGREE", "abc")
    result = runner.invoke(main, ["coh", "series"])
    assert result.exit_code == 2
    assert result.output == "error: SPINELAB_MAX_DEGREE must be an integer, got 'abc'\n"


@pytest.mark.parametrize(
    "args",
    [
        ["equiv", "classify", "--p", "4"],
        ["coh", "series", "--which", "metacyclic", "--p", "4"],
        ["coh", "thm14", "--p", "9"],
        ["spine", "cells", "--p", "2"],
        ["spine", "census", "--p", "1"],
        ["spine", "report", "--p", "15"],
        ["verify", "all", "--p", "4"],
        ["spine", "census", "--p", "2"],
    ],
)
def test_non_prime_p_is_config_error(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.output == "error: p must be an odd prime\n"


def assert_input_error(result, text):
    """Exit 2, nothing on stdout, one `error:` line on stderr naming text."""
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert result.stderr.count("\n") == 1
    assert text in result.stderr


@pytest.mark.parametrize(
    "args, text",
    [
        (["spine", "cells", "--rank", "1"], "rank must be >= 2"),
        (["spine", "report", "--rank", "1", "--json"], "rank must be >= 2"),
        (["coh", "series", "--max-degree", "-3"], "degree bound must be >= 0, got -3"),
        (["coh", "component", "--which", "rose", "--max-degree", "-1"], "got -1"),
        (["spine", "cells", "--rank", "3"], "exist only at rank 4"),
        (["spine", "cells", "--dim", "-1"], "cell dimension must be >= 0, got -1"),
    ],
)
def test_bad_rank_or_bound_is_config_error(runner, args, text):
    assert_input_error(runner.invoke(main, args), text)


def test_negative_env_bound_is_config_error(runner, monkeypatch):
    monkeypatch.setenv("SPINELAB_MAX_DEGREE", "-2")
    assert_input_error(runner.invoke(main, ["coh", "series"]), "got -2")


def _thm_input():
    return json.loads(resources.files("spinelab.fixtures").joinpath("thm_input_p3.json").read_text())


def _missing_image(data):
    del data["restriction_images"]["u3"]
    return "u3"


def _extra_image(data):
    # a key that names no generator, which nothing would read
    data["restriction_images"]["zz"] = "u3"
    return "'zz' names no generator"


def _odd_polynomial(data):
    data["algebra"]["generators"].append({"name": "w5", "degree": 5, "kind": "poly"})
    data["restriction_images"]["w5"] = "0"
    return "even degree"


def _string_degree(data):
    data["algebra"]["generators"][0]["degree"] = "4"
    return "an integer degree"


def _image_list(data):
    data["restriction_images"] = list(data["restriction_images"].values())
    return "'restriction_images' must be an object of strings"


def _other_prime(data):
    # an F_5 algebra restricting onto the F_3 metacyclic cohomology
    data["algebra"]["p"] = 5
    return "source and target must lie over the same prime"


@pytest.mark.parametrize(
    "spoil", [_missing_image, _extra_image, _odd_polynomial, _string_degree, _image_list, _other_prime]
)
def test_thm14_bad_aut_input_is_config_error(runner, tmp_path, spoil):
    data = _thm_input()
    text = spoil(data)
    path = tmp_path / "aut.json"
    path.write_text(json.dumps(data))
    assert_input_error(runner.invoke(main, ["coh", "thm14", "--aut-input", str(path)]), text)


def _write_json(tmp_path, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_thm14_aut_input_array_is_config_error(runner, tmp_path):
    path = _write_json(tmp_path, [1, 2])
    assert_input_error(
        runner.invoke(main, ["coh", "thm14", "--aut-input", path]), "expected a JSON object, got list"
    )


def test_nielsen_input_array_is_config_error(runner, tmp_path):
    path = _write_json(tmp_path, [1, 2])
    assert_input_error(
        runner.invoke(main, ["equiv", "nielsen", "--input", path]), "expected a JSON object, got list"
    )


def test_expand_input_with_string_vertices_is_config_error(runner, tmp_path):
    g, action = catalog.rose_rotation(3, 3)
    path = _write_json(tmp_path, {**ZpGraph(g, action, 3).to_json(), "vertices": "x"})
    assert_input_error(
        runner.invoke(main, ["equiv", "expand", "--input", path]),
        "'vertices' must be an integer, got str",
    )


@pytest.mark.parametrize("command", ["expand", "nielsen"])
def test_equiv_input_with_non_prime_p_is_config_error(runner, tmp_path, command):
    g, action = catalog.rose_rotation(4, 4)
    data = {**g.to_json(), "action_vperm": list(action.vperm), "action_hperm": list(action.hperm), "p": 4}
    path = tmp_path / "p4.json"
    path.write_text(json.dumps(data))
    assert_input_error(
        runner.invoke(main, ["equiv", command, "--input", str(path)]), "p must be an odd prime"
    )


@pytest.mark.parametrize("command", ["expand", "nielsen"])
def test_equiv_input_with_negative_vertex_count_is_config_error(runner, tmp_path, command):
    data = {
        "vertices": -1, "half_edges": 0, "sigma": [], "target": [],
        "action_vperm": [], "action_hperm": [], "p": 3,
    }
    assert_input_error(
        runner.invoke(main, ["equiv", command, "--input", _write_json(tmp_path, data)]),
        "vertex count must be >= 0",
    )


@pytest.mark.parametrize("command", ["expand", "nielsen"])
@pytest.mark.parametrize("vertices", [2**70, 10**6, 2])
def test_equiv_input_with_a_vertex_no_dart_reaches_is_config_error(runner, tmp_path, command, vertices):
    """A vertex count above the darts' targets, however large, is refused
    where the graph comes in, before any size is read off it."""
    g, action = catalog.rose_rotation(3, 3)
    data = {**ZpGraph(g, action, 3).to_json(), "vertices": vertices}
    assert_input_error(
        runner.invoke(main, ["equiv", command, "--input", _write_json(tmp_path, data)]),
        "every vertex must be the target of a dart",
    )


@pytest.mark.parametrize("bound", ["0", "5"])
def test_corollary_below_its_first_degree_says_so(runner, bound):
    result = runner.invoke(main, ["coh", "corollary12", "--max-degree", bound])
    assert result.exit_code == 0
    assert result.stdout == ""
    assert result.stderr == (
        f"no rows up to degree {bound}: the table starts at degree 6, "
        "above the virtual cohomological dimension 5 of Out(F_4)\n"
    )


@pytest.mark.parametrize(
    "args, message",
    [
        (["--p", "5"], "no 1-cells in the p = 5, rank-4 complex\n"),
        (["--dim", "7"], "no 7-cells in the p = 3, rank-4 complex\n"),
    ],
)
def test_cells_with_no_cells_says_so(runner, args, message):
    result = runner.invoke(main, ["spine", "cells", *args])
    assert result.exit_code == 0
    assert result.stdout == ""
    assert result.stderr == message
