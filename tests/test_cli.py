import json

import pytest

from finsem.cli import cli_main


@pytest.fixture
def prog_file(tmp_path):
    f = tmp_path / "prog.gc"
    f.write_text("vars x in 0..1; body: prob 1/3 {x:=0}{x:=1}; post: [x == 0];")
    return str(f)


@pytest.fixture
def pow_prog(tmp_path):
    f = tmp_path / "choice.gc"
    f.write_text("vars x in 0..1; body: choose {x:=0} [] {x:=1}; post: x == 0;")
    return str(f)


def run(capsys, argv):
    code = cli_main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestWpCommand:
    def test_dist_mode_rational_table(self, capsys, prog_file):
        code, out, _ = run(capsys, ["wp", "--mode", "dist", prog_file,
                                    "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["wp"] == {"x=0": "1/3", "x=1": "1/3"}

    def test_pow_mode_default_demonic(self, capsys, pow_prog):
        code, out, _ = run(capsys, ["wp", pow_prog, "--format", "json"])
        assert code == 0
        assert json.loads(out)["wp"] == {"x=0": 0, "x=1": 0}

    def test_post_flag_overrides(self, capsys, pow_prog):
        code, out, _ = run(capsys, ["wp", pow_prog, "--flavor", "angelic",
                                    "--post", "x == 1", "--format", "json"])
        assert code == 0
        assert json.loads(out)["wp"] == {"x=0": 1, "x=1": 1}

    def test_flavor_mode_conflict_is_usage_error(self, capsys, prog_file):
        code, _, err = run(capsys, ["wp", "--mode", "dist", prog_file,
                                    "--flavor", "demonic"])
        assert code == 2 and "mode" in err


class TestRunCommand:
    def test_single_state(self, capsys, prog_file):
        code, out, _ = run(capsys, ["run", "--mode", "dist", prog_file,
                                    "--init", "x=0", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["result"] == {"(0)": "1/3", "(1)": "2/3"}

    def test_initial_distribution(self, capsys, prog_file):
        code, out, _ = run(capsys, ["run", "--mode", "dist", prog_file,
                                    "--init-dist", "{x=0: 1/2, x=1: 1/2}",
                                    "--format", "json"])
        assert code == 0

    def test_missing_init_is_usage_error(self, capsys, prog_file):
        code, _, err = run(capsys, ["run", prog_file])
        assert code == 2


class TestLawsCommand:
    def test_single_monad_pass(self, capsys):
        code, out, _ = run(capsys, ["laws", "--monad", "ultrafilter",
                                    "--max-size", "3"])
        assert code == 0
        assert "PASS" in out

    def test_unknown_monad(self, capsys):
        code, _, err = run(capsys, ["laws", "--monad", "nonsense"])
        assert code == 2


class TestEnumerateCommand:
    def test_poset_literal(self, capsys):
        code, out, _ = run(capsys, [
            "enumerate", "--monad", "hoare",
            "--object", "poset P { elems a b; covers a<b; }",
            "--format", "json",
        ])
        assert code == 0
        payload = json.loads(out)
        assert payload["cardinality"] == 2

    def test_set_literal_neighbourhood(self, capsys):
        code, out, _ = run(capsys, [
            "enumerate", "--monad", "neighbourhood",
            "--object", "set X { elems 0 1; }",
            "--format", "json",
        ])
        assert code == 0
        assert json.loads(out)["cardinality"] == 16

    def test_over_cap_is_usage_error(self, capsys):
        code, _, err = run(capsys, [
            "enumerate", "--monad", "neighbourhood",
            "--object", "set X { elems 0 1 2 3 4; }",
        ])
        assert code == 2


class TestTransposeCommand:
    def test_box_forward_and_round_trip(self, capsys, tmp_path):
        payload = {
            "direction": "forward",
            "dom": ["x1", "x2"],
            "cod": ["y1", "y2"],
            "arrow": {"x1": ["y1"], "x2": ["y1", "y2"]},
        }
        f = tmp_path / "in.json"
        f.write_text(json.dumps(payload))
        code, out, _ = run(capsys, ["transpose", "--correspondence", "box",
                                    "--input", str(f)])
        assert code == 0
        result = json.loads(out)
        assert result["round_trip"] is True
        assert result["transformer"]["{y1}"] == ["x1"]

    def test_box_backward(self, capsys, tmp_path):
        payload = {
            "direction": "backward",
            "dom": ["x1", "x2"],
            "cod": ["y1", "y2"],
            "transformer": {
                "{}": [], "{y1}": ["x1"], "{y2}": [], "{y1,y2}": ["x1", "x2"],
            },
        }
        f = tmp_path / "in.json"
        f.write_text(json.dumps(payload))
        code, out, _ = run(capsys, ["transpose", "--correspondence", "box",
                                    "--input", str(f)])
        assert code == 0
        result = json.loads(out)
        assert result["arrow"] == {"x1": ["y1"], "x2": ["y1", "y2"]}

    def test_three_forward(self, capsys, tmp_path):
        payload = {
            "direction": "forward",
            "poset": {"elements": ["a", "b"], "covers": [["a", "b"]]},
            "map": {"a": 0, "b": 1},
        }
        f = tmp_path / "in.json"
        f.write_text(json.dumps(payload))
        code, out, _ = run(capsys, ["transpose", "--correspondence", "three",
                                    "--input", str(f)])
        assert code == 0
        result = json.loads(out)
        assert result["lens"] == {"outer": ["b"], "inner": []}

    def test_bad_transformer_is_verification_failure(self, capsys, tmp_path):
        payload = {
            "direction": "backward",
            "dom": ["x1"],
            "cod": ["y1"],
            # constant-empty is monotone but not meet(top)-preserving
            "transformer": {"{}": [], "{y1}": []},
        }
        f = tmp_path / "in.json"
        f.write_text(json.dumps(payload))
        code, _, err = run(capsys, ["transpose", "--correspondence", "box",
                                    "--input", str(f)])
        assert code == 1


CHAIN_AB = {"elements": ["a", "b"], "covers": [["a", "b"]]}
CHAIN_CD = {"elements": ["c", "d"], "covers": [["c", "d"]]}
SETS = {"dom": ["x1", "x2"], "cod": ["y1", "y2"]}
SET_TRANSFORMER = {"{}": [], "{y1}": ["x1"], "{y2}": [], "{y1,y2}": ["x1", "x2"]}
CHAIN_TRANSFORMER = {"{}": [], "{d}": ["b"], "{c,d}": ["a", "b"]}

# correspondence -> (forward payload, expected transformer); box has its own test
FORWARD_CASES = {
    "filter": (dict(SETS, arrow={"x1": [["y1"], ["y1", "y2"]], "x2": [["y1", "y2"]]}),
               SET_TRANSFORMER),
    "monotone-nbhd": (dict(SETS, arrow={"x1": [["y1"], ["y2"], ["y1", "y2"]], "x2": []}),
                      {"{}": [], "{y1}": ["x1"], "{y2}": ["x1"], "{y1,y2}": ["x1"]}),
    "diamond": ({"dom": CHAIN_AB, "cod": CHAIN_CD, "arrow": {"a": ["c"], "b": ["c", "d"]}},
                CHAIN_TRANSFORMER),
    "hoare": ({"dom": CHAIN_AB, "cod": CHAIN_CD, "arrow": {"a": ["c"], "b": ["c", "d"]}},
              CHAIN_TRANSFORMER),
    "smyth": ({"dom": CHAIN_AB, "cod": CHAIN_CD, "arrow": {"a": ["c", "d"], "b": ["d"]}},
              CHAIN_TRANSFORMER),
}


@pytest.mark.parametrize("corr", sorted(FORWARD_CASES))
def test_arrow_forward_round_trip(capsys, tmp_path, corr):
    payload, transformer = FORWARD_CASES[corr]
    f = tmp_path / "in.json"
    f.write_text(json.dumps(dict(payload, direction="forward")))
    code, out, _ = run(capsys, ["transpose", "--correspondence", corr, "--input", str(f)])
    assert code == 0
    result = json.loads(out)
    assert result == {"round_trip": True, "transformer": transformer}


class TestCertifyCommand:
    def test_box_two_two(self, capsys):
        code, out, _ = run(capsys, ["certify", "--correspondence", "box",
                                    "--sizes", "2,2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["kleisli_count"] == 16
        assert payload["transformer_count"] == 16
        assert payload["bijection"] is True

    def test_three_posets(self, capsys):
        code, out, _ = run(capsys, ["certify", "--correspondence", "three",
                                    "--sizes", "2"])
        assert code == 0
        assert json.loads(out)["bijection"] is True

    def test_expectation_sampled(self, capsys):
        code, out, _ = run(capsys, ["certify", "--correspondence", "expectation",
                                    "--sizes", "2,2", "--instances", "25"])
        assert code == 0
        assert json.loads(out)["bijection"] is True


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        assert cli_main(["wp", "--frobnicate"]) == 2

    def test_unknown_subcommand(self, capsys):
        assert cli_main(["explode"]) == 2

    def test_missing_file(self, capsys):
        assert cli_main(["wp", "/nonexistent/prog.gc"]) == 2


def usage_error(capsys, argv):
    """Run argv, demand exit 2 with one line on stderr, and return that line."""
    code, _, err = run(capsys, argv)
    assert code == 2
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


class TestInputFailures:
    def test_directory_as_program(self, capsys, tmp_path):
        assert "cannot read" in usage_error(capsys, ["wp", str(tmp_path)])

    def test_certify_sizes_not_integers(self, capsys):
        assert "--sizes" in usage_error(
            capsys, ["certify", "--correspondence", "box", "--sizes", "x"])

    def test_transpose_payload_without_dom(self, capsys, tmp_path):
        f = tmp_path / "in.json"
        f.write_text(json.dumps({"direction": "forward", "cod": ["y1"], "arrow": {}}))
        assert "'dom'" in usage_error(
            capsys, ["transpose", "--correspondence", "box", "--input", str(f)])

    def test_transpose_payload_not_json(self, capsys, tmp_path):
        f = tmp_path / "in.json"
        f.write_text("not json")
        assert "JSON" in usage_error(
            capsys, ["transpose", "--correspondence", "box", "--input", str(f)])

    def test_transpose_plotkin_hom_not_wired(self, capsys, tmp_path):
        f = tmp_path / "in.json"
        f.write_text("{}")
        assert "plotkin-hom" in usage_error(
            capsys, ["transpose", "--correspondence", "plotkin-hom", "--input", str(f)])

    @pytest.mark.parametrize("weight", ["1/0", "abc"])
    def test_bad_initial_weight(self, capsys, prog_file, weight):
        usage_error(capsys, ["run", "--mode", "dist", prog_file,
                             "--init-dist", f"{{x=0: {weight}}}"])

    def test_zero_denominator_in_program(self, capsys, tmp_path):
        f = tmp_path / "prog.gc"
        f.write_text("vars x in 0..1; body: prob 1/0 {x:=0}{x:=1};")
        assert "1:30" in usage_error(capsys, ["wp", "--mode", "dist", str(f),
                                              "--post", "[x == 0]"])
