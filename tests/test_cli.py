"""Command line reports: golden files, exit codes, determinism, and the
layers each command loads."""

import argparse
import ast
import json
import os
import re
import textwrap
from pathlib import Path

import pytest

from childproc import REPO, run_python
from cubemorse.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"

Z3Z = "tests/data/z3z.json"
CK = "tests/data/ck.json"


@pytest.fixture(autouse=True)
def _repo_cwd(monkeypatch):
    # golden inputs echo relative paths, so pin the working directory
    monkeypatch.chdir(REPO)


def invoke(argv: list[str], capsys) -> tuple[int, str]:
    code = run(argv)
    return code, capsys.readouterr().out


def normalized_json(argv: list[str], capsys) -> tuple[int, str]:
    code, out = invoke(["--json"] + argv, capsys)
    out = re.sub(r'"timing_s": [0-9.e+-]+', '"timing_s": 0.0', out)
    return code, out


GOLDEN_CASES = {
    "nf": ["nf", "--graph", Z3Z, "c b a"],
    "crossratio": [
        "crossratio", "--graph", Z3Z, "--base", "c^-2", "--depth", "40",
        "w:a^4|d", "x:a^4 b|d", "y:a^-1 b^-1|d", "z:a^-1 b^-1 c|d",
    ],
    "beta": ["beta", "--delta", "4", "--flats", "12", "--certify"],
    "separated": ["separated", "--graph", Z3Z, "1@d", "a@d"],
    "chain": ["chain", "--graph", CK, "--ray", "|b c c d c b b a", "--n", "0", "--r", "5"],
    "kappa": ["kappa", "--rho", "const 36", "--K", "1", "--C", "0"],
    "gamma": ["gamma", "--flats", "4"],
    "contracting": ["contracting", "word:c c c c c c c c", "--rho", "0", "--radius", "3"],
    "dichotomy": ["dichotomy", "--z", "gamma:20", "--path", "gamma:20",
                  "--rho", "0", "--K", "1", "--C", "0"],
    "example23": ["example23", "--tail", "20"],
    "smallcancel": ["smallcancel"],
    "metric_shallow": ["metric", "--graph", Z3Z, "--depth", "3", "a^50|d", "a^50 b|d"],
    "hyp_shallow": ["hyp", "--graph", Z3Z, "--ray", "|d", "--wall", "d^100@d",
                    "--depth", "3"],
}

EXPECTED_EXIT = {"metric_shallow": 2, "hyp_shallow": 2}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_report(name, capsys):
    code, out = normalized_json(GOLDEN_CASES[name], capsys)
    assert code == EXPECTED_EXIT.get(name, 0)
    path = GOLDEN / f"{name}.json"
    if os.environ.get("UPDATE_GOLDENS"):
        path.write_text(out)
    assert path.exists(), f"golden missing; run with UPDATE_GOLDENS=1 to create {path}"
    assert out == path.read_text()


class TestFrozenExamples:
    def test_nf_result(self, capsys):
        code, out = invoke(["nf", "--graph", Z3Z, "c b a"], capsys)
        assert code == 0
        assert re.search(r"nf\s+a b c", out)

    def test_crossratio_value(self, capsys):
        code, out = normalized_json(GOLDEN_CASES["crossratio"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["outputs"]["cross_ratio"] == {"value": 2, "certified": True}

    def test_crossratio_base_shift_sweep(self, capsys):
        for m in (1, 3, 5):
            argv = list(GOLDEN_CASES["crossratio"])
            argv[4] = f"c^-{m}"
            code, out = normalized_json(argv, capsys)
            assert code == 0
            assert json.loads(out)["outputs"]["cross_ratio"]["value"] == m

    def test_beta_certified_pass(self, capsys):
        code, out = normalized_json(GOLDEN_CASES["beta"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["certified"] is True
        assert rep["outputs"]["quasi_geodesic"]["passed"] is True
        assert rep["outputs"]["quasi_geodesic"]["min_margin"]["value"] == "15/8"
        assert rep["outputs"]["separation"]["min_separation"]["value"] == 5
        assert rep["outputs"]["total_length"]["value"] == 74892028

    def test_gamma_line_counts_at_scale(self, capsys):
        # every interior exit line carries three of gamma's walls, the
        # last two carry two; the counts are one pass over the walls
        code, out = normalized_json(["gamma", "--flats", "240"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["certified"] is True
        assert rep["outputs"]["line_wall_counts"] == {
            "value": [3] * 238 + [2, 2], "certified": True,
        }

    def test_separated_infinite_count(self, capsys):
        # on ck every wall dual to an edge of the c axis through the identity
        # crosses both 1@b and 1@d, so the count is infinite, and certified
        argv = ["separated", "--graph", CK, "1@b", "1@d"]
        code, out = normalized_json(argv, capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["certified"] is True
        assert rep["outputs"] == {
            "crossing_count": {"value": "inf", "certified": True},
            "strongly_separated": False,
        }
        code, out = invoke(argv, capsys)
        assert code == 0
        assert re.search(r"crossing_count\s+inf\n", out)
        assert "(uncertified)" not in out


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run(["bogus"]) == 1

    def test_no_subcommand(self, capsys):
        assert run([]) == 1

    def test_missing_graph_file(self, capsys):
        assert run(["nf", "--graph", "no/such/file.json", "a"]) == 1

    def test_graph_required(self, capsys):
        assert run(["nf", "a"]) == 1

    def test_bad_word(self, capsys):
        assert run(["nf", "--graph", Z3Z, "a q"]) == 1

    def test_bad_wall_syntax(self, capsys):
        assert run(["side", "--graph", Z3Z, "--wall", "noseparator", "a"]) == 1

    def test_bad_ray_labels(self, capsys):
        argv = list(GOLDEN_CASES["crossratio"])
        argv[-1] = "w:a^-1 b^-1 c|d"
        assert run(argv) == 1

    def test_bad_flag_value(self, capsys):
        assert run(["gamma", "--flats", "four"]) == 1

    def test_transverse_walls_rejected(self, capsys):
        assert run(["separated", "--graph", Z3Z, "1@a", "1@b"]) == 1

    def test_separated_takes_no_search_radius(self, capsys):
        code = run(["separated", "--graph", CK, "1@b", "1@d", "--slack", "3"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""

    def test_precondition_failure(self, capsys):
        assert run(["example23", "--f", "poly 0 1", "--tail", "20"]) == 1

    def test_uncertified_is_two(self, capsys):
        assert run(GOLDEN_CASES["metric_shallow"]) == 2

    def test_ball_above_cap_is_a_truncation_limit(self, capsys):
        code = run(["contracting", "--graph", CK, "word:a", "--radius", "13"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: radius 13 above cap 12\n"

    def test_unstable_representative_is_a_truncation_limit(self, capsys):
        # a and b commute, so a^-1 (b^1000 a)^n has normal form
        # a^(n-1) b^(1000n): its first 3000 letters settle only at more
        # copies than the representative's doublings reach
        code = run(["chain", "--graph", CK, "--ray", "a^-1|b^1000 a", "--depth", "3000"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: representative does not stabilize at this depth\n"

    @pytest.mark.parametrize("command", ["chain", "refine"])
    @pytest.mark.parametrize("flags", [["--n", "-1"], ["--r", "1"], ["--r", "0"], ["--r", "-3"]])
    def test_impossible_chain_bounds(self, command, flags, capsys):
        argv = [command, "--graph", CK, "--ray", "|b c c d c b b a"] + flags
        if command == "refine":
            argv += ["1@b", "b@c"]
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("argv, err", [
        (["example23", "--tail", "20", "--kappa", "-1"], "error: need kappa >= 0, got -1\n"),
        (["contracting", "word:c", "--radius", "0", "--cap", "-1"],
         "error: ball cap must be nonnegative, got -1\n"),
    ], ids=["example23-kappa", "contracting-cap"])
    def test_negative_bound_is_bad_input(self, argv, err, capsys):
        # nothing lies within a negative distance, and no other --cap settles
        # a negative one, so both are bad input rather than a truncation limit
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == err

    @pytest.mark.parametrize("argv", [
        ["smallcancel", "--f", "poly 2 1"],
        ["example23", "--f", "poly 2 1", "--tail", "10"],
    ], ids=["smallcancel", "example23"])
    def test_both_glued_graph_commands_share_one_f_domain(self, argv, capsys):
        # f(i) = i + 2: f(i)/i falls, so neither command accepts it
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: f(i)/i does not increase at i = 1\n"

    @pytest.mark.parametrize(
        "option", [["--max-pairs", "5"], ["--seed", "1"]], ids=["max-pairs", "seed"]
    )
    def test_contracting_takes_no_sampling_options(self, capsys, option):
        # the check is always exhaustive, so it has no budget or seed
        code = run(GOLDEN_CASES["contracting"] + option)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""

    @pytest.mark.parametrize("command", [
        ["kappa"],
        ["beta", "--delta", "4", "--flats", "12"],
        ["dichotomy", "--graph", CK, "--z", "gamma:4", "--path", "gamma:4"],
    ])
    @pytest.mark.parametrize("flag, value", [("--K", "1/0"), ("--C", "2/0")])
    def test_zero_denominator_constant(self, command, flag, value, capsys):
        # Fraction raises ZeroDivisionError here, which argparse does not catch
        code = run(command + [flag, value])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: argument {flag}: invalid")
        assert f"value: '{value}'" in captured.err

    @pytest.mark.parametrize("spec", ["gamma:x", "gamma:", "beta:4,12,x"])
    def test_non_integer_path_spec(self, spec, capsys):
        code = run(["dichotomy", "--graph", CK, "--z", spec, "--path", "gamma:4"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: bad path spec '{spec}'")

    def test_error_goes_to_stderr(self, capsys):
        code = run(["bogus"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "error:" in captured.err


class TestReportShape:
    def test_json_flag_position_irrelevant(self, capsys):
        before = run(["--json", "nf", "--graph", Z3Z, "b a"])
        out1 = capsys.readouterr().out
        after = run(["nf", "--json", "--graph", Z3Z, "b a"])
        out2 = capsys.readouterr().out
        assert before == after == 0
        norm = lambda s: re.sub(r'"timing_s": [0-9.e+-]+', "T", s)
        assert norm(out1) == norm(out2)

    def test_deterministic_reports(self, capsys):
        _, out1 = normalized_json(GOLDEN_CASES["contracting"], capsys)
        _, out2 = normalized_json(GOLDEN_CASES["contracting"], capsys)
        assert out1 == out2

    def test_every_numeric_output_is_flagged(self, capsys):
        def check(node):
            if isinstance(node, dict):
                if set(node) == {"value", "certified"}:
                    assert isinstance(node["certified"], bool)
                    return
                for v in node.values():
                    check(v)
            elif isinstance(node, list):
                for v in node:
                    check(v)
            else:
                assert not isinstance(node, (int, float)) or isinstance(node, bool), (
                    f"bare numeric {node!r} in report outputs"
                )

        for name, argv in GOLDEN_CASES.items():
            if name in ("beta", "example23", "smallcancel", "contracting"):
                continue  # covered below; skipping repeat work
            _, out = normalized_json(argv, capsys)
            check(json.loads(out)["outputs"])
        for name in ("beta", "example23", "smallcancel", "contracting"):
            _, out = normalized_json(GOLDEN_CASES[name], capsys)
            check(json.loads(out)["outputs"])

    def test_report_keys(self, capsys):
        _, out = normalized_json(GOLDEN_CASES["kappa"], capsys)
        rep = json.loads(out)
        assert sorted(rep) == ["certified", "command", "inputs", "outputs", "timing_s"]
        assert rep["command"] == "kappa"
        assert rep["inputs"][0] == "kappa"

    def test_human_mode_marks_uncertified(self, capsys):
        code, out = invoke(GOLDEN_CASES["metric_shallow"], capsys)
        assert code == 2
        assert "(uncertified)" in out
        assert re.search(r"certified\s+no", out)


# (graph, base, xi, eta, depth, certified), on both graphs
METRIC_PAIRS = [
    (Z3Z, None, "d a|d", "d b|d", "40", True),
    (Z3Z, "d", "d^3 a|d", "d^3 b|d", "40", True),
    (Z3Z, None, "a^50|d", "a^50 b|d", "3", False),
    (Z3Z, "c^-2", "a^4|d", "a^-1 b^-1|d", "3", False),
    (CK, None, "a d a|d", "a d a|b c", "40", False),
    (CK, "a", "a^3 d|a d", "a^3 d^2|a d", "40", True),
    (CK, "c", "|a d", "a|d", "2", False),
]


@pytest.mark.parametrize("graph, base, xi, eta, depth, certified", METRIC_PAIRS)
def test_metric_is_the_bracket_product(graph, base, xi, eta, depth, certified, capsys):
    # d_o(ξ, η) = exp(-[ξ|η]_o), so the metric command prints the bracket
    # product's value and certificate under the metric's name
    args = ["--graph", graph, "--depth", depth] + (["--base", base] if base else []) + [xi, eta]
    reports = []
    for command in ("metric", "bracket"):
        code, out = normalized_json([command] + args, capsys)
        assert code == (0 if certified else 2)
        rep = json.loads(out)
        reports.append({k: v for k, v in rep.items() if k not in ("command", "inputs", "timing_s")})
    assert reports[0] == reports[1]
    assert reports[0]["certified"] is certified


# --- the exit-code and report contract, over every subcommand ---------------------

# a few argument vectors per subcommand: one valid, then edge values such as
# empty words, zero and negative bounds, bad gauges and bad specs
CONTRACT_CASES = {
    "nf": [
        ["--graph", Z3Z, "c b a"],
        ["--graph", Z3Z, ""],
        ["--graph", CK, "a^0"],
        ["c"],
    ],
    "dist": [
        ["--graph", Z3Z, "a", "b d"],
        ["--graph", CK, "", "1"],
        ["--graph", CK, "a", "a q"],
    ],
    "walls": [
        ["--graph", CK, "1", "a b"],
        ["--graph", Z3Z, "", ""],
        ["--graph", Z3Z, "a^-3", "d^"],
    ],
    "side": [
        ["--graph", Z3Z, "--wall", "1@a", "a b"],
        ["--graph", Z3Z, "--wall", "@a", ""],
        ["--graph", CK, "--wall", "1@", "a"],
        ["--graph", CK, "--wall", "1@q", "a"],
    ],
    "crosses": [
        ["--graph", CK, "1@a", "1@b"],
        ["--graph", CK, "1@a", "1@a"],
        ["--graph", CK, "@", "@"],
    ],
    "separated": [
        ["--graph", Z3Z, "1@d", "a@d"],
        ["--graph", Z3Z, "1@a", "1@b"],
        ["--graph", CK, "1@a", "1@a"],
        ["--graph", CK, "", ""],
    ],
    "chain": [
        ["--graph", CK, "--ray", "|a d", "--n", "1"],
        ["--graph", CK, "--ray", "|a d", "--n", "-1"],
        ["--graph", CK, "--ray", "|a d", "--r", "0"],
        ["--graph", CK, "--ray", "|a d", "--depth", "0"],
        ["--graph", CK, "--ray", "|a d", "--depth", "-1"],
        ["--graph", CK, "--ray", ""],
        ["--graph", CK, "--ray", "a|"],
    ],
    **{
        command: [
            ["--graph", Z3Z, "d a|d", "d b|d"],
            ["--graph", Z3Z, "--depth", "3", "a^9|d", "a^9 b|d"],
            ["--graph", CK, "--depth", "0", "|a d", "|d"],
            ["--graph", CK, "--depth", "-1", "|a d", "|d"],
            ["--graph", CK, "--base", "", "|a d", "|d"],
            ["--graph", CK, "--base", "q", "|a d", "|d"],
            ["--graph", CK, "|a a^-1", "|d"],
            ["--graph", CK, "|a d", "a"],
        ]
        for command in ("product", "bracket", "metric")
    },
    "crossratio": [
        GOLDEN_CASES["crossratio"][1:],
        ["--graph", Z3Z, "--variant", "bfm", "--depth", "0", "w:|d", "x:a|d", "y:b|d", "z:c|d"],
        ["--graph", Z3Z, "w:|d", "x:|d", "y:|d", "x:|d"],
        ["--graph", Z3Z, "w:|d", "x:|d", "y:|d", "z:|d"],
        ["--graph", Z3Z, "--depth", "-1", "w:|d", "x:a|d", "y:b|d", "z:c|d"],
    ],
    "hyp": [
        ["--graph", CK, "--ray", "|a d", "--wall", "1@a"],
        GOLDEN_CASES["hyp_shallow"][1:],
        ["--graph", CK, "--ray", "|a d"],
        ["--graph", CK, "--ray", "|a d", "--wall", "1@a", "--depth", "0"],
        ["--graph", CK, "--ray", "|a d", "--wall", "1@a", "--depth", "-1"],
    ],
    "refine": [
        ["--graph", CK, "--ray", "|b c c d c b b a", "1@b", "b@c"],
        ["--graph", CK, "--ray", "|a d", "1@a", "1@a"],
        ["--graph", CK, "--ray", "|a d", "1@a", "a d@d"],
        ["--graph", CK, "--ray", "|a d", "1@a", "1@d", "--depth", "0"],
    ],
    "kappa": [
        ["--rho", "power 2 1/2"],
        ["--rho", "log 3", "--K", "0"],
        ["--rho", "const -3"],
        ["--rho", "bogus"],
        ["--K", "-1", "--C", "-1"],
        ["--rho", ""],
    ],
    "gamma": [["--flats", "3"], ["--flats", "0"], ["--flats", "-1"]],
    "beta": [
        ["--delta", "4", "--flats", "2"],
        ["--delta", "4", "--flats", "2", "--certify", "--K", "1"],
        ["--delta", "0", "--flats", "2"],
        ["--delta", "4", "--flats", "0"],
        ["--delta", "4", "--flats", "-1"],
        ["--delta", "-4", "--flats", "2", "--certify"],
    ],
    "contracting": [
        ["word:c c c", "--radius", "1"],
        ["beta:4,12", "--radius", "1"],
        ["word:c", "--radius", "0", "--cap", "-1"],
        ["word:c", "--radius", "-1"],
        ["word:c", "--radius", "0", "--cap", "0"],
        ["word:", "--radius", "1"],
        ["word:c", "--rho", "bogus"],
        ["gamma:x"],
        ["--graph", CK, "gamma:0", "--radius", "1"],
        ["--graph", CK, "word:a", "--radius", "13"],
    ],
    "dichotomy": [
        ["--z", "gamma:4", "--path", "gamma:4"],
        ["--z", "word:", "--path", "word:"],
        ["--z", "gamma:4", "--path", "word:d", "--rho", "bogus"],
        ["--z", "delta:3", "--path", "gamma:4"],
        ["--z", "gamma:4", "--path", "gamma:4", "--K", "0"],
        ["--z", "gamma:4", "--path", "gamma:4", "--C", "-1"],
        ["--z", "gamma:-1", "--path", "gamma:4"],
    ],
    "example23": [
        ["--tail", "8"],
        ["--tail", "20", "--kappa", "-1"],
        ["--tail", "0"],
        ["--tail", "-1"],
        ["--tail", "8", "--imax", "0"],
        ["--tail", "8", "--kappa", "0"],
        ["--tail", "8", "--f", "bogus"],
    ],
    "smallcancel": [
        [], ["--imax", "0"], ["--imax", "-1"], ["--f", "poly 0"], ["--f", ""], ["--f", "poly 2 1"],
    ],
}


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_contract_cases_cover_every_subcommand():
    from cubemorse import cli

    assert set(CONTRACT_CASES) == set(_subcommands(cli._build_parser()))


@pytest.mark.parametrize("command", sorted(CONTRACT_CASES))
def test_exit_code_and_report_contract(command, capsys):
    for args in CONTRACT_CASES[command]:
        argv = ["--json", command] + args
        code = run(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), (argv, code, err)
        if code == 1 or not out:
            # bad input, or a truncation limit: one error line and no report
            assert code != 0 and out == "", (argv, code)
            assert re.fullmatch(r"error: [^\n]*\n", err), (argv, err)
        else:
            rep = json.loads(out)
            assert sorted(rep) == ["certified", "command", "inputs", "outputs", "timing_s"]
            assert (code == 0) is rep["certified"], (argv, code)
            assert err == "", (argv, err)


def _parsed(parser: argparse.ArgumentParser, argv: list[str]):
    from cubemorse.cli import CLIError

    try:
        return parser.parse_args(argv)
    except CLIError as exc:
        return str(exc)


@pytest.mark.parametrize("command", sorted(CONTRACT_CASES))
def test_one_command_parser_matches_the_full_parser(command):
    from cubemorse import cli

    full, one = cli._build_parser(), cli._build_parser(command)
    assert list(_subcommands(one)) == [command]
    assert _subcommands(one)[command].format_help() == _subcommands(full)[command].format_help()
    argvs = [["--json", command] + args for args in CONTRACT_CASES[command]]
    argvs += [argv for argv in GOLDEN_CASES.values() if argv[0] == command]
    argvs += [argv for argv in (README_DICHOTOMY, README_CONTRACTING) if argv[0] == command]
    for argv in argvs:
        assert _parsed(one, argv) == _parsed(full, argv), argv


def test_help_and_unknown_commands_name_every_command(capsys):
    commands = sorted(CONTRACT_CASES)
    with pytest.raises(SystemExit):
        run(["--help"])
    out = capsys.readouterr().out
    assert [c for c in commands if not re.search(rf"^    {c}\b", out, re.M)] == []
    assert run(["bogus"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: argument COMMAND: invalid choice: 'bogus'"), err
    assert [c for c in commands if f"'{c}'" not in err] == []


@pytest.mark.parametrize("argv", [
    ["contracting", "gamma:4", "--graph", Z3Z, "--radius", "1"],
    ["contracting", "beta:4,2", "--graph", Z3Z, "--radius", "1"],
    ["dichotomy", "--graph", Z3Z, "--z", "gamma:20", "--path", "gamma:20", "--K", "1", "--C", "0"],
    ["dichotomy", "--graph", Z3Z, "--z", "word:a b", "--path", "beta:4,2,6"],
])
def test_escape_paths_refuse_another_graph(argv, capsys):
    # gamma and beta are built on the Croke-Kleiner graph whatever --graph says
    assert run(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"error: (gamma|beta) paths live on the Croke-Kleiner graph[^\n]*\n", err)


def test_escape_paths_take_a_graph_equal_to_croke_kleiner(capsys):
    assert run(["contracting", "gamma:4", "--graph", CK, "--radius", "1"]) == 0
    assert run(["dichotomy", "--graph", CK, "--z", "gamma:20", "--path", "beta:4,2,6"]) == 0


def test_contracting_reads_a_long_path_near_the_ball_only(capsys):
    # beta:4,12 has 74 892 028 steps; the check reads those within 2r of its start
    assert run(["--json", "contracting", "beta:4,12", "--radius", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["outputs"]["passed"] is True


def test_console_entry_point():
    proc = run_python("-m", "cubemorse", "nf", "--graph", Z3Z, "c b a")
    assert proc.returncode == 0
    assert "a b c" in proc.stdout


def test_cli_import_needs_only_stdlib():
    # site hooks load modules at start-up, so only the import's own count
    code = (
        "import sys; before = set(sys.modules); import cubemorse.cli; "
        "new = {m.partition('.')[0] for m in set(sys.modules) - before}; "
        "print(sorted(new - {'cubemorse'} - set(sys.stdlib_module_names)))"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


README_DICHOTOMY = ["dichotomy", "--z", "gamma:160", "--path", "beta:4,12",
                    "--rho", "0", "--K", "8", "--C", "1"]
README_CONTRACTING = ["contracting", "gamma:4", "--rho", "const 3", "--radius", "3"]


def test_full_escape_path_dichotomy(capsys):
    code, out = normalized_json(README_DICHOTOMY, capsys)
    assert code == 0
    rep = json.loads(out)["outputs"]
    got = {k: rep[k]["value"] for k in ("case", "last_return", "max_distance", "residual_min")}
    assert got == {"case": 2, "last_return": 243, "max_distance": 67484149,
                   "residual_min": "9263/16"}
    assert rep["bound_ok"] is True


@pytest.mark.parametrize("argv", [README_DICHOTOMY, GOLDEN_CASES["beta"]])
def test_reports_survive_python_O(argv):
    # certificates are explicit checks, so stripping asserts changes nothing
    def report(flags):
        proc = run_python(*flags, "-m", "cubemorse", "--json", *argv)
        assert proc.returncode == 0, proc.stderr
        return re.sub(r'"timing_s": [0-9.e+-]+', '"timing_s": 0.0', proc.stdout)

    assert report(["-O"]) == report([])


# build_beta reads line gates for its escape choice, so the gate is
# negated only inside verify_separation. Its first read there is of the
# end of segment 2's escape run on the entry line; negating it puts that
# point beyond the first certificate wall
NEGATE_FIRST_GATE = """
from cubemorse import constructions
real, verify, reads = constructions.line_gate_exponent, constructions.verify_separation, []
def negated(x, g):
    reads.append(x)
    return -real(x, g) if len(reads) == 1 else real(x, g)
def negating_verify(*args):
    constructions.line_gate_exponent = negated
    try:
        return verify(*args)
    finally:
        constructions.line_gate_exponent = real
constructions.verify_separation = negating_verify
"""
BETA_VIOLATION = "error: certificate violation: segment 2: escape run crosses"


def test_certificate_violation_exits_3(monkeypatch, capsys):
    from cubemorse import constructions

    # the script replaces constructions.verify_separation; monkeypatch puts it back
    monkeypatch.setattr(constructions, "verify_separation", constructions.verify_separation)
    exec(NEGATE_FIRST_GATE, {})
    code = run(GOLDEN_CASES["beta"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.startswith(BETA_VIOLATION), err


def test_certificate_violation_exits_3_under_python_O():
    script = NEGATE_FIRST_GATE + textwrap.dedent(
        f"""
        import sys
        from cubemorse.cli import run
        sys.exit(run({GOLDEN_CASES["beta"]!r}))
        """
    )
    proc = run_python("-O", "-c", script)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith(BETA_VIOLATION), proc.stderr


def test_contracting_honours_the_cap(tmp_path, capsys):
    # radius 15 needs balls above the default cap of 12 on Z
    graph = tmp_path / "z.json"
    graph.write_text(json.dumps({"generators": ["a"], "edges": []}))
    argv = ["contracting", "--graph", str(graph), "word:a", "--radius", "15", "--cap", "15"]
    code, out = normalized_json(argv, capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["certified"] is True
    assert rep["outputs"]["passed"] is True
    assert rep["outputs"]["exhaustive"] is True


def test_one_flat_beta_certify_is_bad_input(capsys):
    code = run(["beta", "--delta", "4", "--flats", "1", "--certify"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: separation is certified from segment 2 on"), err


def test_one_flat_beta_report(capsys):
    code, out = normalized_json(["beta", "--delta", "4", "--flats", "1"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["certified"] is True
    got = {k: v["value"] if isinstance(v, dict) else v for k, v in rep["outputs"].items()}
    assert got == {
        "delta": 4, "flats": 1, "run_lengths": [7], "connector_lengths": [1],
        "total_length": 8, "family_sequence": "CB", "endpoint": "b c^-7",
    }


def test_glued_graph_miscount_exits_3(monkeypatch, capsys):
    from cubemorse import example23

    monkeypatch.setattr(example23.LabeledGraph, "vertex_count", property(lambda g: 0))
    code = run(GOLDEN_CASES["example23"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err == "error: certificate violation: glued graph has the wrong vertex or edge count\n"


def test_failed_internal_check_exits_3(monkeypatch, capsys):
    from cubemorse import cli

    # program code holds no assert, but a library the CLI calls may fail one
    def failing(args):
        raise AssertionError("library invariant")

    monkeypatch.setattr(cli, "_cmd_example23", failing)
    code = run(GOLDEN_CASES["example23"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.startswith("error: internal check failed: library invariant (test_cli.py:"), err
    assert "in failing" in err, err


def test_program_code_holds_no_assert():
    # proof obligations are explicit checks, which python -O keeps
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((REPO / "src" / "cubemorse").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# --- import guards: a command loads only the layers it runs ---------------------

LOADED_LAYERS = """
import contextlib, io, json, sys
from cubemorse.cli import run
with contextlib.redirect_stdout(io.StringIO()):
    code = run(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("cubemorse.")
                               or m in ("dataclasses", "inspect"))]))
"""
ESCAPE_LAYERS = {"cubemorse.constructions", "cubemorse.runpaths"}
WALL_LAYERS = {"cubemorse.walls", "cubemorse.boundary"}
# the word, wall and ray layers are no dataclasses, and dataclasses imports inspect
DATACLASSES = {"dataclasses", "inspect"}


def _layers_loaded(argv: list[str]) -> tuple[int, set]:
    proc = run_python("-c", LOADED_LAYERS, json.dumps(argv))
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout)
    return code, set(modules)


# command -> the modules its first contract case must not load; the
# glued-graph commands run on the word layer alone
SKIPPED_LAYERS = {
    "nf": ESCAPE_LAYERS | WALL_LAYERS | DATACLASSES,
    "dist": ESCAPE_LAYERS | WALL_LAYERS | DATACLASSES,
    "crossratio": ESCAPE_LAYERS | DATACLASSES,
    "example23": ESCAPE_LAYERS | WALL_LAYERS,
    "smallcancel": ESCAPE_LAYERS | WALL_LAYERS,
    **{name: {"cubemorse.boundary"} for name in ("kappa", "gamma", "beta", "contracting", "dichotomy")},
}


@pytest.mark.parametrize("name", sorted(SKIPPED_LAYERS))
def test_boundary_commands_skip_escape_layers(name):
    code, modules = _layers_loaded([name] + CONTRACT_CASES[name][0])
    assert code == 0
    assert not modules & SKIPPED_LAYERS[name], sorted(modules)


def test_escape_command_loads_escape_layers():
    code, modules = _layers_loaded(GOLDEN_CASES["beta"])
    assert code == 0
    assert ESCAPE_LAYERS <= modules


# module -> the layers it sits on directly; a module may import from these
# and from every layer below them, and from nothing else
LAYERS = {
    "raag": (),
    "walls": ("raag",),
    "runpaths": ("raag",),
    "boundary": ("walls",),
    "constructions": ("raag", "walls", "runpaths"),
    "example23": ("raag",),
    "cli": ("raag", "walls", "boundary", "runpaths", "constructions", "example23"),
    "__main__": ("cli",),
    "__init__": (),
}


def _below(module: str) -> set:
    out = set()
    for dep in LAYERS[module]:
        out |= {dep} | _below(dep)
    return out


def test_modules_import_only_lower_layers():
    found = {}
    for path in sorted((REPO / "src" / "cubemorse").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found[path.stem] = {
            node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
        }
    assert set(found) == set(LAYERS)
    bad = {m: sorted(deps - _below(m)) for m, deps in found.items() if deps - _below(m)}
    assert bad == {}


def test_glued_graph_module_loads_only_the_word_layer():
    code = (
        "import sys, cubemorse.example23; "
        "print(sorted(m for m in sys.modules if m.startswith('cubemorse')))"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['cubemorse', 'cubemorse.example23', 'cubemorse.raag']"


def test_bare_import_loads_no_submodule():
    code = "import sys, cubemorse; print(sorted(m for m in sys.modules if m.startswith('cubemorse.')))"
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_package_namespace_resolves_to_home_modules():
    import importlib

    import cubemorse

    assert len(set(cubemorse.__all__)) == len(cubemorse.__all__)
    for module, names in cubemorse._EXPORTS.items():
        home = importlib.import_module(f"cubemorse.{module}")
        for name in names:
            assert getattr(cubemorse, name) is getattr(home, name), name
    assert set(cubemorse.__all__) <= set(dir(cubemorse))
    star: dict = {}
    exec("from cubemorse import *", star)
    assert set(cubemorse.__all__) <= set(star)
    with pytest.raises(AttributeError):
        cubemorse.no_such_name


def test_certificate_violation_is_one_class():
    import cubemorse
    from cubemorse import cli, raag, runpaths, walls

    cls = raag.CertificateViolation
    assert runpaths.CertificateViolation is cls
    assert walls.CertificateViolation is cls
    assert cli.CertificateViolation is cls
    assert cubemorse.CertificateViolation is cls


def test_input_errors_live_in_the_word_layer():
    import cubemorse
    from cubemorse import constructions, example23, raag

    for name in ("ConfigError", "PreconditionFailed"):
        cls = getattr(raag, name)
        assert getattr(constructions, name) is cls
        assert getattr(example23, name) is cls
        assert getattr(cubemorse, name) is cls
