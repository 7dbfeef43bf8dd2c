"""CLI surface: subcommands, exit codes, deterministic reports."""

import json
import warnings

import pytest

from pcpkit.cli import run_command
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

    def test_bounds_assert_violation(self, capsys, hyperbola_file):
        code, out = run(
            capsys, "bounds", hyperbola_file, "--global", "--radii", "1,5",
            "--samples", "200", "--alpha", "1", "--claim", "1000.0",
            "--starts", "60", "--assert",
        )
        assert code == 1


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
        assert lines[0].startswith("spawn_index,")
        assert len(lines) == 4

    def test_lemke(self, capsys, tmp_path):
        path = tmp_path / "lcp.json"
        path.write_text(json.dumps({"M": [[1, 0], [0, 1]], "q": [-1, -1]}))
        code, out = run(capsys, "lemke", str(path))
        assert code == 0
        assert json.loads(out)["payload"]["z"] == [1.0, 1.0]


class TestErrors:
    def test_missing_file(self, capsys):
        code, _ = run(capsys, "solve", "/nonexistent/file.json")
        assert code == 2

    def test_unknown_flag(self, capsys):
        code, _ = run(capsys, "solve", "--bogus")
        assert code == 2

    def test_schema_violation(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": 1, "n": 2, "f": [], "g": []}')
        code, _ = run(capsys, "solve", str(path))
        assert code == 2

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

    @pytest.mark.parametrize(
        "f0, g1",
        [
            # coefficients near 1e300: residual norms overflow to inf
            (
                [{"coefficient": "1e300", "exponents": [2, 0]},
                 {"coefficient": "-1.0", "exponents": [0, 0]}],
                [{"coefficient": "1e300", "exponents": [1, 1]},
                 {"coefficient": "1.0", "exponents": [0, 0]}],
            ),
            # a degree-12 component
            (
                [{"coefficient": "1.0", "exponents": [12, 0]},
                 {"coefficient": "-1.0", "exponents": [0, 0]}],
                [{"coefficient": "1.0", "exponents": [0, 1]},
                 {"coefficient": "1.0", "exponents": [0, 0]}],
            ),
        ],
        ids=["coefficients-1e300", "degree-12"],
    )
    def test_solve_extreme_instance_is_quiet(self, capsys, tmp_path, f0, g1):
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
            code = run_command(["solve", str(path)])
        captured = capsys.readouterr()
        assert code == 0
        assert [str(w.message) for w in caught] == []
        assert captured.err == ""
        assert json.loads(captured.out)["command"] == "solve"
