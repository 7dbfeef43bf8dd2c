"""CLI surface: subcommands, exit codes, deterministic reports."""

import hashlib
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from pcpkit import cli, probes
from pcpkit.cli import build_parser, run_command
from pcpkit.documents import serialize_instance
from pcpkit.genericity import random_instance

HYPERBOLA = {
    "schema_version": 1,
    "n": 2,
    "f": [
        [
            {"coefficient": "-1.0", "exponents": [0, 0]},
            {"coefficient": "1.0", "exponents": [0, 1]},
        ],
        [
            {"coefficient": "-1.0", "exponents": [0, 0]},
            {"coefficient": "1.0", "exponents": [1, 1]},
        ],
    ],
    "g": [
        [
            {"coefficient": "-1.0", "exponents": [0, 0]},
            {"coefficient": "1.0", "exponents": [0, 1]},
        ],
        [
            {"coefficient": "-1.0", "exponents": [0, 0]},
            {"coefficient": "1.0", "exponents": [1, 1]},
        ],
    ],
}

UNSOLVABLE = {
    "schema_version": 1,
    "n": 2,
    "f": [
        [{"coefficient": "1.0", "exponents": [1, 0]}],
        [
            {"coefficient": "-1.0", "exponents": [0, 0]},
            {"coefficient": "1.0", "exponents": [1, 1]},
        ],
    ],
    "g": [
        [{"coefficient": "1.0", "exponents": [1, 0]}],
        [
            {"coefficient": "-1.0", "exponents": [0, 0]},
            {"coefficient": "1.0", "exponents": [1, 1]},
        ],
    ],
}


@pytest.fixture
def hyperbola_file(tmp_path):
    path = tmp_path / "hyperbola.json"
    path.write_text(json.dumps(HYPERBOLA))
    return str(path)


@pytest.fixture
def unsolvable_file(tmp_path):
    path = tmp_path / "unsolvable.json"
    path.write_text(json.dumps(UNSOLVABLE))
    return str(path)


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


# every flag the probes declare, with a valid value
PROBE_FLAGS = {
    "--seed": ["1"], "--assert": [], "--samples": ["64"], "--refine": ["5"],
    "--componentwise": [], "--radii": ["1,2"], "--radius": ["2"], "--xref": ["0,0"],
    "--leading": [], "--c": ["1"], "--region": ["0,10"], "--pairs": ["50"],
    "--tol": ["1e-9"], "--starts": ["40"], "--box": ["5"],
}
# probe -> (its required flags, the flags it reads besides --seed and --assert)
PROBE_READS = {
    "r0": ((), ("--samples", "--refine", "--componentwise")),
    "r0-shifted": ((), ("--samples", "--refine", "--componentwise")),
    "coercivity": (("--radii",), ("--samples",)),
    "xref": (("--xref", "--radius"), ("--samples", "--leading")),
    "karamardian": (("--c",), ("--samples",)),
    "jacobian": ((), ("--tol", "--starts", "--box")),
    "pfunction": (("--region",), ("--pairs",)),
}
# (argv head, flag) for each flag a command does not read: the 72 (probe,
# flag) pairs, then --starts, --box and --seed on certify and homotopy, and
# --seed on residual
UNREAD_FLAGS = [
    (("probe", name, "{instance}", *(a for flag in required for a in (flag, *PROBE_FLAGS[flag]))),
     flag)
    for name, (required, reads) in PROBE_READS.items()
    for flag in PROBE_FLAGS
    if flag not in ("--seed", "--assert", *required, *reads)
] + [
    (("certify", "{instance}", "--point", "1,1"), flag) for flag in ("--starts", "--box", "--seed")
] + [
    (("homotopy", "{instance}", "--leading"), flag) for flag in ("--starts", "--box", "--seed")
] + [(("residual", "{instance}", "--point", "1,1"), "--seed")]
# (argv head, a prefix of a flag the command declares) for every command and probe
FLAG_PREFIXES = [
    (("solve", "{instance}"), ("--st", "10")),
    (("residual", "{instance}", "--point", "1,1"), ("--poi", "1,1")),
    (("certify", "{instance}", "--point", "1,1"), ("--to", "1e-3")),
    (("homotopy", "{instance}", "--leading"), ("--to", "1e-3")),
    (("probe", "r0", "{instance}"), ("--c",)),
    (("probe", "r0-shifted", "{instance}"), ("--comp",)),
    (("probe", "coercivity", "{instance}", "--radii", "1,2"), ("--samp", "64")),
    (("probe", "xref", "{instance}", "--xref", "0,0", "--radius", "2"), ("--lead",)),
    (("probe", "karamardian", "{instance}", "--c", "1"), ("--samp", "64")),
    (("probe", "jacobian", "{instance}"), ("--st", "40")),
    (("probe", "pfunction", "{instance}", "--region", "0,10"), ("--pair", "50")),
    (("bounds", "{instance}", "--region", "0,2"), ("--samp", "50")),
    (("exponent", "--n", "2", "--d", "3"), ("--he",)),
    (("generate", "--n", "2", "--degrees", "2"), ("--na", "x")),
    (("trial", "--n", "1", "--degrees", "1", "--trials", "1"), ("--cs",)),
    (("lemke", "{instance}"), ("--he",)),
]


class TestSolve:
    def test_hyperbola(self, capsys, hyperbola_file):
        code, out = run(capsys, "solve", hyperbola_file, "--starts", "60")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["count"] == 1
        point = payload["solutions"][0]["point"]
        assert abs(point[0] - 1.0) < 1e-8 and abs(point[1] - 1.0) < 1e-8

    def test_empty_set_exits_zero(self, capsys, unsolvable_file):
        code, out = run(capsys, "solve", unsolvable_file, "--starts", "60")
        assert code == 0
        assert json.loads(out)["payload"]["count"] == 0

    def test_byte_identical_reruns(self, capsys, hyperbola_file):
        _, first = run(capsys, "solve", hyperbola_file, "--seed", "4", "--starts", "60")
        _, second = run(capsys, "solve", hyperbola_file, "--seed", "4", "--starts", "60")
        assert first == second


class TestResidualAndCertify:
    def test_residual_payload(self, capsys, hyperbola_file):
        code, out = run(capsys, "residual", hyperbola_file, "--point", "5,0.2")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["natural_map"] == [-0.8, 0.0]

    def test_certify_accept(self, capsys, hyperbola_file):
        code, out = run(capsys, "certify", hyperbola_file, "--point", "1,1")
        assert code == 0
        assert json.loads(out)["payload"]["accepted"] is True

    def test_certify_reject_assert(self, capsys, hyperbola_file):
        code, out = run(capsys, "certify", hyperbola_file, "--point", "0,0", "--assert")
        assert code == 1
        assert json.loads(out)["payload"]["accepted"] is False

    def test_certify_reject_no_assert(self, capsys, hyperbola_file):
        code, _ = run(capsys, "certify", hyperbola_file, "--point", "0,0")
        assert code == 0


class TestProbeAndBounds:
    def test_probe_r0_assert_exit(self, capsys, hyperbola_file):
        code, out = run(capsys, "probe", "r0", hyperbola_file, "--assert")
        assert code == 1
        assert json.loads(out)["payload"]["verdict"] == "counterexample"

    def test_probe_jacobian_header_echoes_solver_flags(self, capsys, hyperbola_file):
        # the header alone reproduces the report
        _, few = run(capsys, "probe", "jacobian", hyperbola_file, "--starts", "3")
        _, many = run(capsys, "probe", "jacobian", hyperbola_file, "--starts", "60")
        assert json.loads(few)["config"]["starts_per_subsystem"] == 3
        assert json.loads(many)["config"]["starts_per_subsystem"] == 60

    def test_probe_pfunction(self, capsys, unsolvable_file):
        code, out = run(
            capsys, "probe", "pfunction", unsolvable_file,
            "--region", "0,10", "--pairs", "500",
        )
        assert code == 0
        assert json.loads(out)["payload"]["verdict"] == "evidence-pass"

    def test_bounds_csv(self, capsys, hyperbola_file):
        code, out = run(
            capsys, "bounds", hyperbola_file, "--region", "0,2", "--samples", "50",
            "--alpha", "1", "--starts", "60", "--csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "dist,residual"
        assert len(lines) == 51
        # each pair prints as the repr of two Python floats, not of numpy scalars
        for line in lines[1:]:
            dist, residual = line.split(",")
            assert line == f"{float(dist)!r},{float(residual)!r}"

    def test_bounds_assert_violation(self, capsys, hyperbola_file):
        code, out = run(
            capsys, "bounds", hyperbola_file, "--radii", "1,5",
            "--samples", "200", "--alpha", "1", "--claim", "1000.0",
            "--starts", "60", "--assert",
        )
        assert code == 1


class TestOneParser:
    """run_command shares one parser per process; no call leaks into the next."""

    @pytest.mark.parametrize("name, attr", [("r0", "r0_test"),
                                            ("r0-shifted", "r0_shifted_pair_probe")])
    def test_probe_runner_calls_a_replaced_function(
            self, capsys, monkeypatch, hyperbola_file, name, attr):
        argv = ["probe", name, hyperbola_file, "--samples", "64", "--refine", "5"]
        first = run(capsys, *argv)
        calls = []
        original = getattr(probes, attr)

        def recorded(*args, **kwargs):
            calls.append(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(probes, attr, recorded)
        assert run(capsys, *argv) == first
        assert len(calls) == 1 and calls[0]["samples"] == 64

    def test_calls_match_calls_on_a_fresh_parser(self, capsys, hyperbola_file):
        r0 = ["probe", "r0", hyperbola_file, "--samples", "64", "--refine", "5"]
        sequence = [
            ["solve", hyperbola_file, "--bogus"],
            ["--help"],
            [*r0, "--componentwise"],
            ["solve", hyperbola_file],
            r0,
        ]

        def outcome(argv):
            code = run_command(argv)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        build_parser.cache_clear()
        shared = [outcome(argv) for argv in sequence]
        fresh = []
        for argv in sequence:
            build_parser.cache_clear()
            fresh.append(outcome(argv))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [2, 0, 0, 0, 0]
        assert shared[0][2].startswith("usage: pcpkit solve ")
        assert shared[1][1].startswith("usage: pcpkit [-h]")


class TestNegativeValues:
    """A value that starts with "-" follows its option after "=" or a space."""

    def test_point(self, capsys, hyperbola_file):
        code, out = run(capsys, "residual", hyperbola_file, "--point=-1,0")
        assert code == 0
        assert json.loads(out)["payload"]["point"] == [-1.0, 0.0]
        code, out = run(capsys, "certify", hyperbola_file, "--point=-1,0")
        assert code == 0
        assert json.loads(out)["payload"]["point"] == [-1.0, 0.0]

    def test_xref(self, capsys, hyperbola_file):
        code, out = run(capsys, "homotopy", hyperbola_file, "--xref=-1,0.5")
        assert code == 0
        assert json.loads(out)["config"]["xref"] == [-1.0, 0.5]
        code, out = run(
            capsys, "probe", "xref", hyperbola_file, "--xref=-1,0.5", "--radius", "2",
            "--samples", "64",
        )
        assert code == 0
        assert json.loads(out)["payload"]["config"]["x_ref"] == [-1.0, 0.5]

    def test_region(self, capsys, hyperbola_file, unsolvable_file):
        code, out = run(
            capsys, "probe", "pfunction", unsolvable_file, "--region=-2,2", "--pairs", "50",
        )
        assert code == 0
        assert json.loads(out)["payload"]["config"]["region"] == [[-2.0, 2.0]] * 2
        code, out = run(
            capsys, "bounds", hyperbola_file, "--region=-2,2", "--samples", "50",
            "--starts", "20",
        )
        assert code == 0
        assert json.loads(out)["config"]["region"] == [[-2.0, 2.0]] * 2

    @pytest.mark.parametrize("head, option, value, tail", [
        (("residual", "hyperbola"), "--point", "-1,0", ()),
        (("certify", "hyperbola"), "--point", "-1,0", ()),
        (("homotopy", "hyperbola"), "--xref", "-1,0.5", ()),
        (("probe", "xref", "hyperbola"), "--xref", "-1,0.5", ("--radius", "2", "--samples", "64")),
        (("probe", "pfunction", "unsolvable"), "--region", "-2,2", ("--pairs", "50")),
        (("bounds", "hyperbola"), "--region", "-2,2", ("--samples", "50", "--starts", "20")),
    ], ids=["residual", "certify", "homotopy", "probe-xref", "probe-pfunction", "bounds"])
    def test_space_form_matches_equals_form(
        self, capsys, hyperbola_file, unsolvable_file, head, option, value, tail
    ):
        files = {"hyperbola": hyperbola_file, "unsolvable": unsolvable_file}
        head = [files.get(arg, arg) for arg in head]
        code, equals_out = run(capsys, *head, f"{option}={value}", *tail)
        assert code == 0
        code, space_out = run(capsys, *head, option, value, *tail)
        assert code == 0
        assert space_out == equals_out

    @pytest.mark.parametrize("head, option, value, tail", [
        (head, option, value, tail)
        for head, option, tail in (
            (("residual", "hyperbola"), "--point", ()),
            (("probe", "xref", "hyperbola"), "--xref", ("--radius", "2", "--samples", "64")),
            (("bounds", "hyperbola"), "--region", ("--samples", "50", "--starts", "20")),
            (("probe", "coercivity", "hyperbola"), "--radii", ("--samples", "64")),
        )
        for value in ("-1,0", "-.5,2", "-1e-3,0.5", "-inf,0", "-nan,0")
    ] + [
        (("probe", "xref", "hyperbola", "--xref", "0,0"), "--radius", "-2", ()),
        (("probe", "karamardian", "hyperbola"), "--c", "-1", ()),
        (("solve", "hyperbola"), "--tol", "-1e-9", ()),
        (("bounds", "hyperbola", "--radii", "1,5"), "--claim", "-1",
         ("--samples", "50", "--starts", "20")),
    ])
    def test_value_forms_agree(self, capsys, hyperbola_file, head, option, value, tail):
        # "--opt v" and "--opt=v" give the same report, errors and exit code
        head = [hyperbola_file if arg == "hyperbola" else arg for arg in head]
        outcomes = []
        for form in ((option, value), (f"{option}={value}",)):
            code = run_command([*head, *form, *tail])
            captured = capsys.readouterr()
            outcomes.append((code, captured.out, captured.err))
        assert outcomes[0] == outcomes[1]
        assert "expected one argument" not in outcomes[0][2]


class TestExponentGenerateTrialLemke:
    def test_exponent_values(self, capsys):
        code, out = run(capsys, "exponent", "--n", "2", "--d", "2")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["holder_exponent"] == 3888
        assert payload["naive_exponent"] == 1244160
        assert "3888" in out and "1244160" in out

    @pytest.mark.parametrize("n,d", [(1, 1), (2, 3), (3, 2)])
    def test_exponent_payload_matches_bounds(self, capsys, n, d):
        from pcpkit.bounds import exponent_R, holder_exponent, naive_exponent

        code, out = run(capsys, "exponent", "--n", str(n), "--d", str(d))
        assert code == 0
        payload = json.loads(out)["payload"]
        inst = random_instance(n, [d] * n, [d] * n, 4)
        holder = holder_exponent(inst)
        assert payload["R"] == exponent_R(n, d)
        assert payload["holder_exponent"] == holder.alpha
        assert payload["global_alpha_is_one"] == holder.global_alpha_is_one
        assert payload["naive_exponent"] == naive_exponent(inst)

    def test_exponent_at_the_digit_limit(self, capsys):
        from pcpkit.bounds import naive_exponent_for

        # (2*2 + 1) * 12^3983 has 4300 digits, the most a report prints
        code, out = run(capsys, "exponent", "--n", "1328", "--d", "2")
        assert code == 0
        assert json.loads(out)["payload"]["naive_exponent"] == naive_exponent_for(1328, 2)

    @pytest.mark.parametrize("n, digits", [(1329, 4303), (2000, 6475),
                                           (1_000_000_000, 3237543738)])
    def test_exponent_past_the_digit_limit_refused(self, capsys, n, digits):
        # refused from logarithms, before any exponent is computed
        started = time.perf_counter()
        code = run_command(["exponent", "--n", str(n), "--d", "2"])
        assert time.perf_counter() - started < 1.0
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"error: naive exponent has {digits} digits; reports print at most 4300\n"
        )

    def test_generate_parses_back(self, capsys, tmp_path):
        code, out = run(capsys, "generate", "--n", "2", "--degrees", "2", "--seed", "9")
        assert code == 0
        expected = serialize_instance(random_instance(2, (2, 2), (2, 2), 9))
        assert out == expected

    def test_trial_deterministic(self, capsys):
        args = ("trial", "--n", "1", "--degrees", "1", "--trials", "4",
                "--seed", "2", "--starts", "40")
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert first == second
        assert json.loads(first)["payload"]["trials"] == 4

    def test_trial_csv(self, capsys):
        code, out = run(
            capsys, "trial", "--n", "1", "--degrees", "1", "--trials", "3",
            "--seed", "2", "--starts", "40", "--csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ("spawn_index,solution_count,strict_ok,r0_ok,lipschitz_ok,"
                            "lipschitz_c,lemke_status,lemke_agrees")
        assert len(lines) == 4

    def test_trial_csv_header_without_records(self, capsys):
        # the sweep refuses 2^25 subsets, so the one trial is skipped and leaves no record
        args = ("trial", "--n", "25", "--degrees", "1", "--trials", "1")
        code, out = run(capsys, *args, "--csv")
        assert code == 0
        assert out == ("spawn_index,solution_count,strict_ok,r0_ok,lipschitz_ok,"
                       "lipschitz_c,lemke_status,lemke_agrees\n")
        payload = json.loads(run(capsys, *args)[1])["payload"]
        assert (payload["records"], payload["skipped"]) == ([], 1)
        assert payload["failures"][0]["stage"] == "enumerate"

    def test_lemke(self, capsys, tmp_path):
        path = tmp_path / "lcp.json"
        path.write_text(json.dumps({"M": [[1, 0], [0, 1]], "q": [-1, -1]}))
        code, out = run(capsys, "lemke", str(path))
        assert code == 0
        assert json.loads(out)["payload"]["z"] == [1.0, 1.0]

    @pytest.mark.parametrize("text", [
        '{"M": [["a"]], "q": [1]}',
        '{"M": [[1, 0], [1]], "q": [-1, -1]}',
        '{"M": [[1]], "q": ["x"]}',
        # JSON reads 1e400 as inf
        '{"M": [[1e400]], "q": [-1]}',
    ], ids=["non-numeric-M", "ragged-M", "non-numeric-q", "infinite-M"])
    def test_lemke_refuses_what_it_cannot_pivot_on(self, capsys, tmp_path, text):
        path = tmp_path / "lcp.json"
        path.write_text(text)
        code = run_command(["lemke", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: M and q must ")
        assert captured.out == ""

    def test_lemke_overflow_is_not_a_solution(self, capsys, tmp_path):
        # finite data whose pivots overflow: z = inf once passed the NaN-blind sanity check
        path = tmp_path / "lcp.json"
        path.write_text(json.dumps({"M": [[1e-11]], "q": [-1e300]}))
        code = run_command(["lemke", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: pivoting finished with inconsistent basis (gap nan)\n"
        assert captured.out == ""


# name -> (argv, sha256 of its stdout) (numpy 2.4, x86-64).  inst.json holds
# random_instance(2, (2, 2), (2, 2), 1), whose sweep certifies the accepted
# point; every path is relative, so the config echo is the same in any directory
REPORT_PINS = {
    "certify-accepted": (
        ("certify", "inst.json", "--point", "-1.5746210289069646,-0.9110294373868091"),
        "7f30308859155d85c4b42225b1e23fb9011f7086f733dad7af6c0a908641e464",
    ),
    "certify-rejected": (
        ("certify", "inst.json", "--point", "0,0"),
        "3e0fad7cc22282f7ed506f19beb7ae394a05191ee825c60492a3fe773cac1857",
    ),
    "trial": (
        ("trial", "--n", "2", "--degrees", "2", "--trials", "5", "--starts", "60"),
        "d6da3cf3272fc01e263b287db8c0cbd6bed9085cc950b667ff5755b91fd7f444",
    ),
    "trial-csv": (
        ("trial", "--n", "2", "--degrees", "2", "--trials", "5", "--starts", "60", "--csv"),
        "9e108b046cf36bfea63b15f638c1cea7211d161149e89cdd034e94f5b766cb53",
    ),
    # affine trials carry the Lemke fields
    "trial-affine": (
        ("trial", "--n", "2", "--degrees", "1", "--trials", "5"),
        "a69cd77b846e897dae5550eb331fe15f0974699bc8e3b9045bd51d928638e840",
    ),
    # n = 25 is over the sweep's cap: two "enumerate" failures and skipped 2
    "trial-skipped": (
        ("trial", "--n", "25", "--degrees", "1", "--trials", "2"),
        "bc8c1b631e83eef359ffe9139c71694a1835de0249f21b554ce34ac41ad3057e",
    ),
    "lemke-solution": (
        ("lemke", "solution.json"),
        "fc8d108bb7a4f738fb8f816c6e56e47f147ce2902923df2273ee4b17906421a6",
    ),
    "lemke-ray": (
        ("lemke", "ray.json"),
        "22a8f4df2959654c44339e1324fc7cb6bf664b435d5552d632c219ce59ced6bf",
    ),
    "lemke-trivial": (
        ("lemke", "trivial.json"),
        "a5a983404f12c61baaf1ca79bf826b3f932f52735e75a9710c3c5e490ccb0b95",
    ),
    # a report whose fitted exponent is not null
    "bounds-local": (
        ("bounds", "inst.json", "--region", "-2,2", "--samples", "4000"),
        "6795fb093b556f5c4e54bfe21f732f988c7ac98a376e09d2b2ba473466d0880e",
    ),
}
LCP_FILES = {
    "solution.json": {"M": [[2, 1], [1, 2]], "q": [-1, -1]},
    "ray.json": {"M": [[0, -1], [1, 0]], "q": [-1, 1]},
    "trivial.json": {"M": [[1, 0], [0, 1]], "q": [1, 2]},
}


class TestReportPins:
    """The reports built from records are pinned byte for byte."""

    @pytest.mark.parametrize("name", REPORT_PINS)
    def test_report_bytes(self, capsys, monkeypatch, tmp_path, name):
        inst = random_instance(2, (2, 2), (2, 2), 1)
        (tmp_path / "inst.json").write_text(serialize_instance(inst))
        for file, problem in LCP_FILES.items():
            (tmp_path / file).write_text(json.dumps(problem))
        monkeypatch.chdir(tmp_path)
        argv, digest = REPORT_PINS[name]
        code, out = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestErrors:
    def test_missing_file(self, capsys):
        code, _ = run(capsys, "solve", "/nonexistent/file.json")
        assert code == 2

    @pytest.mark.parametrize("command", [("solve",), ("lemke",), ("probe", "r0")],
                             ids=["solve", "lemke", "probe-r0"])
    @pytest.mark.parametrize("unreadable", ["directory", "non-utf8"])
    def test_unreadable_input_file(self, capsys, tmp_path, command, unreadable):
        # one error line and exit 2, not a traceback
        path = tmp_path
        if unreadable == "non-utf8":
            path = tmp_path / "latin1.json"
            path.write_bytes('{"M": [[1]], "q": ["\u00e9"]}'.encode("latin-1"))
        code = run_command([*command, str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""
        if unreadable == "non-utf8":
            reason = "byte 20: invalid continuation byte"
            assert captured.err == f"error: {path}: not UTF-8 text ({reason})\n"

    def test_unknown_flag(self, capsys):
        code, _ = run(capsys, "solve", "--bogus")
        assert code == 2

    @pytest.mark.parametrize("raw", ["nan", "inf"])
    def test_non_finite_coefficient(self, capsys, tmp_path, raw):
        # a generated instance with one non-finite coefficient is refused, not solved
        assert run_command(["generate", "--n", "2", "--degrees", "2", "--seed", "1"]) == 0
        document = json.loads(capsys.readouterr().out)
        document["f"][0][0]["coefficient"] = raw
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        code = run_command(["solve", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: $.f[0][0].coefficient: coefficient {raw!r} is not finite\n"
        assert captured.out == ""

    # one command line per command that takes --seed: solve, bounds, generate,
    # trial and the seven probes
    SEEDED = [
        ("solve", "{instance}"),
        ("bounds", "{instance}", "--radii", "1,5"),
        ("generate", "--n", "2", "--degrees", "2"),
        ("trial", "--n", "1", "--degrees", "1", "--trials", "1"),
    ] + [
        ("probe", name, "{instance}",
         *(a for flag in required for a in (flag, *PROBE_FLAGS[flag])))
        for name, (required, _) in PROBE_READS.items()
    ]

    @pytest.mark.parametrize("head", SEEDED, ids=["-".join(h[:2]) if h[0] == "probe" else h[0]
                                                  for h in SEEDED])
    def test_negative_seed_refused(self, capsys, hyperbola_file, head):
        # numpy refuses a negative seed with a ValueError; the parser refuses it first
        argv = [arg.format(instance=hyperbola_file) for arg in head]
        code = run_command([*argv, "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        command = " ".join(head[:2]) if head[0] == "probe" else head[0]
        assert captured.err.startswith(f"usage: pcpkit {command} ")
        assert captured.err.splitlines()[-1] == (
            f"pcpkit {command}: error: argument --seed: expected a non-negative integer, got '-1'")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("text", ["+5", "5_0", " 50 "])
    def test_seed_takes_what_int_takes(self, capsys, text):
        # only negative values are refused; every spelling int() reads still parses
        head = ["generate", "--n", "2", "--degrees", "2", "--seed"]
        assert run_command([*head, str(int(text))]) == 0
        want = capsys.readouterr()
        assert run_command([*head, text]) == 0
        assert capsys.readouterr() == want

    # (argv, its one error line): inst.json holds random_instance(2, (2, 2), (2, 2), 1);
    # abc, tiny and constants.json change its f, and argparse's refusals print
    # their usage lines first
    REFUSALS = [
        (("solve", "abc.json"), "error: $.f[0][0].coefficient: unparsable coefficient 'abc'"),
        (("solve", "tiny.json"),
         "error: $.f[0]: coefficient 1e-310 for (0, 0) is below the magnitude floor 1e-300"),
        (("solve", "constants.json"), "error: $: f must have degree >= 1"),
        (("residual", "inst.json", "--point", "1,x"),
         "pcpkit residual: error: argument --point: expected comma-separated numbers, got '1,x'"),
        (("generate", "--n", "2", "--degrees", "2,x"),
         "pcpkit generate: error: argument --degrees: expected comma-separated integers, "
         "got '2,x'"),
        (("bounds", "inst.json", "--region", "1,2,3"),
         "error: --region needs 2 or 4 numbers (low,high per coordinate)"),
        (("generate", "--n", "2"),
         "error: generate needs --degrees (or --degrees-f and --degrees-g)"),
        (("lemke", "list.json"), "error: lemke input must be a JSON object with keys 'M' and 'q'"),
        (("lemke", "text.json"), "error: invalid JSON: Expecting value: line 1 column 1 (char 0)"),
        (("probe", "r0", "inst.json", "--samples", "0"), "error: samples must be >= 1"),
        (("probe", "karamardian", "inst.json", "--c", "1", "--samples", "0"),
         "error: samples must be >= 1"),
        (("probe", "pfunction", "inst.json", "--region", "0,1", "--pairs", "0"),
         "error: pairs must be >= 1"),
        (("trial", "--n", "0", "--degrees", "1", "--trials", "1"),
         "error: need n >= 1 and one positive degree per component"),
        (("bounds", "inst.json", "--radii=", "--samples", "5"), "error: need at least one radius"),
        (("solve", "inst.json", "--seed", "abc"),
         "pcpkit solve: error: argument --seed: expected a non-negative integer, got 'abc'"),
    ]

    @pytest.mark.parametrize("argv, message", REFUSALS, ids=[
        "coefficient-abc", "coefficient-below-floor", "constant-f", "residual-point",
        "generate-degrees", "bounds-region", "generate-no-degrees", "lemke-list",
        "lemke-invalid-json", "r0-samples", "karamardian-samples", "pfunction-pairs", "trial-n",
        "bounds-no-radius", "solve-seed-text"])
    def test_refusal(self, capsys, monkeypatch, tmp_path, argv, message):
        document = json.loads(serialize_instance(random_instance(2, (2, 2), (2, 2), 1)))
        (tmp_path / "inst.json").write_text(json.dumps(document))
        for name, raw in (("abc", "abc"), ("tiny", "1e-310")):
            document["f"][0][0]["coefficient"] = raw
            (tmp_path / f"{name}.json").write_text(json.dumps(document))
        document["f"] = [[{"coefficient": "1.0", "exponents": [0, 0]}],
                         [{"coefficient": "2.0", "exponents": [0, 0]}]]
        (tmp_path / "constants.json").write_text(json.dumps(document))
        (tmp_path / "list.json").write_text("[1, 2]")
        (tmp_path / "text.json").write_text("not json")
        monkeypatch.chdir(tmp_path)
        code = run_command(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        lines = captured.err.splitlines()
        assert lines[-1] == message
        assert all(line.startswith(("usage:", " ")) for line in lines[:-1])
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_schema_violation(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": 1, "n": 2, "f": [], "g": []}')
        code, _ = run(capsys, "solve", str(path))
        assert code == 2

    @pytest.mark.parametrize(
        "head, flag", UNREAD_FLAGS,
        ids=["-".join(arg for arg in head[:2] if arg != "{instance}") + flag
             for head, flag in UNREAD_FLAGS],
    )
    def test_unread_flag_refused(self, capsys, hyperbola_file, head, flag):
        argv = [arg.format(instance=hyperbola_file) for arg in head]
        code = run_command([*argv, flag, *PROBE_FLAGS[flag]])
        captured = capsys.readouterr()
        assert code == 2
        lines = captured.err.splitlines()
        # refused by the command's own parser, whose usage lists the flags it takes
        command = " ".join(arg for arg in head[:2] if arg != "{instance}")
        assert lines[0].startswith(f"usage: pcpkit {command} ")
        assert lines[-1].startswith(f"pcpkit {command}: error: unrecognized arguments: ")
        assert all(line.startswith(("usage:", " ")) for line in lines[:-1])
        assert captured.out == ""

    @pytest.mark.parametrize(
        "head, prefix", FLAG_PREFIXES,
        ids=["-".join(arg for arg in head[:2] if not arg.startswith(("{", "-")))
             for head, _ in FLAG_PREFIXES],
    )
    def test_flag_prefix_refused(self, capsys, hyperbola_file, head, prefix):
        # a prefix is not read as the flag it begins ("--c" is not --componentwise)
        argv = [arg.format(instance=hyperbola_file) for arg in head]
        code = run_command([*argv, *prefix])
        captured = capsys.readouterr()
        assert code == 2
        command = " ".join(arg for arg in head[:2] if not arg.startswith(("{", "-")))
        assert captured.err.startswith(f"usage: pcpkit {command} ")
        assert captured.err.splitlines()[-1] == (
            f"pcpkit {command}: error: unrecognized arguments: {' '.join(prefix)}")
        assert captured.out == ""

    def test_top_level_flag_prefix_refused(self, capsys):
        # "--he" is not --help: no help page, but the missing command's refusal
        code = run_command(["--he"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.splitlines()[0] == "usage: pcpkit [-h]"
        assert captured.out == ""

    def test_probe_refuses_a_flag_with_its_own_usage(self, capsys, hyperbola_file):
        # argparse hands a sub-parser's unknown flags back to the top-level parser,
        # whose usage lists only the subcommands
        code = run_command(["probe", "r0", hyperbola_file, "--radii", "1,2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("usage: pcpkit probe r0 ") and "--samples" in captured.err
        assert captured.err.splitlines()[-1] == (
            "pcpkit probe r0: error: unrecognized arguments: --radii 1,2")
        assert captured.out == ""

    def test_missing_required_option(self, capsys, hyperbola_file):
        code, _ = run(capsys, "probe", "coercivity", hyperbola_file)
        assert code == 2

    @pytest.mark.parametrize(
        "command, point",
        [
            ("residual", "nan,0"),
            ("residual", "inf,1"),
            ("residual", "1e200,1e200"),
            ("certify", "nan,0"),
        ],
    )
    def test_non_finite_point(self, capsys, hyperbola_file, command, point):
        code = run_command([command, hyperbola_file, "--point", point])
        captured = capsys.readouterr()
        assert code == 2
        # one error line, after argparse's usage lines when argparse refuses
        lines = captured.err.splitlines()
        assert "error:" in lines[-1]
        assert all(line.startswith(("usage:", " ")) for line in lines[:-1])
        assert captured.out == ""

    @pytest.mark.parametrize("option, value, field", [
        ("--tol", "nan", "newton_tol"),
        ("--box", "inf", "start_box_radius"),
    ])
    def test_non_finite_solver_setting(self, capsys, hyperbola_file, option, value, field):
        # refused before the sweep, naming the setting
        code = run_command(["solve", hyperbola_file, option, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: {field} must be finite and positive, got {value}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command, options", [
        ("certify", ("--point", "1,1")),
        ("homotopy", ("--xref", "0.5,0.5")),
        ("homotopy", ("--leading",)),
    ], ids=["certify", "homotopy-xref", "homotopy-leading"])
    def test_loose_tolerance_runs_without_the_sweep(self, capsys, hyperbola_file, command, options):
        # only the sweep dedupes, so only it needs newton_tol below the dedupe radius
        code, out = run(capsys, command, hyperbola_file, *options, "--tol", "1e-3")
        assert code == 0
        assert json.loads(out)["config"]["newton_tol"] == 1e-3

    def test_sweep_refuses_tolerance_at_dedupe_radius(self, capsys, hyperbola_file):
        code = run_command(["solve", hyperbola_file, "--tol", "1e-6"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: dedupe_radius must exceed newton_tol\n"
        assert captured.out == ""

    @pytest.mark.parametrize("starts", [("--leading", "--xref", "0.5,0.5"), ()],
                             ids=["both", "neither"])
    def test_homotopy_takes_exactly_one_start(self, capsys, hyperbola_file, starts):
        code = run_command(["homotopy", hyperbola_file, *starts])
        captured = capsys.readouterr()
        assert code == 2
        lines = captured.err.splitlines()
        assert lines[0].startswith("usage:") and "--xref" in lines[-1] and "--leading" in lines[-1]
        assert captured.out == ""

    @pytest.mark.parametrize("domain", [("--region", "-2,2", "--radii", "1,5"), ()],
                             ids=["both", "neither"])
    def test_bounds_takes_exactly_one_domain(self, capsys, hyperbola_file, domain):
        code = run_command(["bounds", hyperbola_file, *domain])
        captured = capsys.readouterr()
        assert code == 2
        lines = captured.err.splitlines()
        assert lines[0].startswith("usage: pcpkit bounds ")
        assert "--region" in lines[-1] and "--radii" in lines[-1]
        assert captured.out == ""

    def test_overflow_to_nan_is_quiet(self, capsys, tmp_path):
        # on a dense instance, terms overflow to inf - inf = nan at 1e200
        assert run_command(["generate", "--n", "2", "--degrees", "2", "--seed", "1"]) == 0
        path = tmp_path / "dense.json"
        path.write_text(capsys.readouterr().out)
        code = run_command(["residual", str(path), "--point", "1e200,1e200"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
        assert captured.out == ""

    @pytest.mark.parametrize("argv, name", [
        (("probe", "xref", "{instance}", "--xref", "0,0", "--radius", "nan"), "radius"),
        (("probe", "xref", "{instance}", "--xref", "0,0", "--radius", "inf"), "radius"),
        (("probe", "karamardian", "{instance}", "--c", "nan"), "c"),
        (("probe", "coercivity", "{instance}", "--radii", "nan,2"), "--radii"),
        (("probe", "coercivity", "{instance}", "--radii", "1,inf"), "--radii"),
        (("probe", "r0", "{instance}", "--refine", "-5"), "refine_iters"),
        (("bounds", "{instance}", "--radii", "nan"), "--radii"),
        (("bounds", "{instance}", "--radii", "1,5", "--alpha", "-1"), "alpha"),
        (("bounds", "{instance}", "--region", "0,2", "--alpha", "nan"), "alpha"),
        (("bounds", "{instance}", "--region", "0,2", "--claim", "nan"), "claimed_c"),
    ], ids=["xref-radius-nan", "xref-radius-inf", "karamardian-c-nan", "coercivity-radii-nan",
            "coercivity-radii-inf", "r0-refine-negative", "bounds-radii-nan",
            "bounds-alpha-negative", "bounds-alpha-nan", "bounds-claim-nan"])
    def test_out_of_range_setting_refused(self, capsys, hyperbola_file, argv, name):
        # the setting is named, not reported later as a non-finite number in the report
        code = run_command([arg.format(instance=hyperbola_file) for arg in argv])
        captured = capsys.readouterr()
        assert code == 2
        last = captured.err.splitlines()[-1]
        assert "error:" in last and name in last and "non-finite" not in last
        assert captured.out == ""

    @pytest.mark.parametrize("option, value, message", [
        ("--alpha", "-1", "alpha must be finite and positive, got -1.0"),
        ("--claim", "-1", "claimed_c must be finite and positive, got -1.0"),
        ("--samples", "0", "samples must be >= 1"),
    ], ids=["alpha", "claim", "samples"])
    def test_bound_settings_refused_before_the_sweep(
        self, monkeypatch, capsys, hyperbola_file, option, value, message
    ):
        def no_sweep(*args):
            raise AssertionError("the sweep ran before the settings were checked")

        monkeypatch.setattr(cli, "enumerate_solutions", no_sweep)
        code = run_command(["bounds", hyperbola_file, "--radii", "1,5", option, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "probe, options",
        [
            ("xref", ["--xref", "0,0", "--radius", "1"]),
            ("coercivity", ["--radii", "1,2"]),
        ],
    )
    def test_zero_probe_samples(self, capsys, hyperbola_file, probe, options):
        code = run_command(["probe", probe, hyperbola_file, "--samples", "0", *options])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err
        assert "Traceback" not in captured.err

    # coefficients near 1e300, where residual norms overflow to inf, and a degree-12 component
    extreme = pytest.mark.parametrize(
        "f0, g1",
        [
            (
                [{"coefficient": "1e300", "exponents": [2, 0]},
                 {"coefficient": "-1.0", "exponents": [0, 0]}],
                [{"coefficient": "1e300", "exponents": [1, 1]},
                 {"coefficient": "1.0", "exponents": [0, 0]}],
            ),
            (
                [{"coefficient": "1.0", "exponents": [12, 0]},
                 {"coefficient": "-1.0", "exponents": [0, 0]}],
                [{"coefficient": "1.0", "exponents": [0, 1]},
                 {"coefficient": "1.0", "exponents": [0, 0]}],
            ),
        ],
        ids=["coefficients-1e300", "degree-12"],
    )

    @staticmethod
    def run_quietly(capsys, tmp_path, f0, g1, *command):
        """Run a command on the extreme instance: exit 0, no warning, empty stderr."""
        doc = {
            "schema_version": 1,
            "n": 2,
            "f": [f0, [{"coefficient": "1.0", "exponents": [0, 1]}]],
            "g": [[{"coefficient": "1.0", "exponents": [1, 0]}], g1],
        }
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_command([command[0], str(path), *command[1:]])
        captured = capsys.readouterr()
        assert code == 0
        assert [str(w.message) for w in caught] == []
        assert captured.err == ""
        assert json.loads(captured.out)["command"] == command[0]

    @extreme
    def test_solve_extreme_instance_is_quiet(self, capsys, tmp_path, f0, g1):
        self.run_quietly(capsys, tmp_path, f0, g1, "solve")

    @extreme
    @pytest.mark.parametrize("start", [("--leading",), ("--xref", "0.5,0.5")],
                             ids=["leading", "xref"])
    def test_homotopy_extreme_instance_is_quiet(self, capsys, tmp_path, f0, g1, start):
        self.run_quietly(capsys, tmp_path, f0, g1, "homotopy", *start)


class TestClosedPipe:
    def test_reader_closing_early_ends_quietly(self, tmp_path):
        # the csv rows (about 150 KB) overfill a 64 KB pipe buffer, so rows are
        # still being written when the reader closes the pipe after the header
        inst = random_instance(2, (2, 2), (2, 2), 1)
        (tmp_path / "inst.json").write_text(serialize_instance(inst))
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        command = ["bounds", "inst.json", "--radii", "1,5", "--samples", "2000", "--csv"]
        process = subprocess.Popen([sys.executable, "-m", "pcpkit.cli", *command], cwd=tmp_path,
                                   env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert process.stdout.readline() == b"dist,residual\n"
        process.stdout.close()
        err = process.stderr.read()
        process.stderr.close()
        assert process.wait(timeout=120) == 0
        assert err == b""  # no BrokenPipeError traceback, nor anything else
