import math
import re

import numpy as np
import pytest

from ilse import (
    GenParams,
    IlseSolution,
    PerturbationQuadruple,
    WeightScheme,
    apply_signature,
    assemble_augmented,
    mu_one,
    parse_experiment_csv,
    read_problem,
    residual_gamma,
    run_experiment,
    run_trial,
    solve_ilse,
    write_problem,
)
from ilse import backward_error as be
from ilse import properties
from ilse.harness import CSV_HEADER, ExperimentConfig, format_rows
from ilse.testgen import gen_ilse_instance

from conftest import SMALL_DIMS, small_params


# (json key, ExperimentRow field) of a json table row, in order; the first 11
# are the csv columns.
JSON_SCHEMA = [
    ("eps", "eps"), ("kappa_A", "kappa_a"), ("kappa_B", "kappa_b"), ("gamma", "gamma"),
    ("gamma_bar", "gamma_bar"), ("mu_1", "mu_1"), ("rho_xi1", "rho_xi1"), ("rho_xi0", "rho_xi0"),
    ("tau0", "tau0"), ("condition_flag", "condition_flag"), ("seed", "seed"),
    ("kappa_A_nominal", "kappa_a_nominal"), ("failed", "failed"), ("reason", "reason"),
]


def small_config(**overrides):
    kwargs = dict(
        SMALL_DIMS,
        kappa_a_list=(50.0,),
        kappa_b_list=(100.0,),
        eps_list=(1e-6,),
        trials_per_cell=2,
        base_seed=424242,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


class TestMuOne:
    def test_zero(self):
        pert = PerturbationQuadruple(
            E=np.zeros((2, 2)), f=np.zeros(2), F=np.zeros((1, 2)), g=np.zeros(1)
        )
        assert mu_one(pert) == 0.0

    def test_block_frobenius(self):
        E = np.zeros((2, 2))
        E[1, 0] = 2.0
        f = np.array([1.0, 0.0])
        pert = PerturbationQuadruple(E=E, f=f, F=np.zeros((1, 2)), g=np.zeros(1))
        assert mu_one(pert) == pytest.approx(math.sqrt(5.0))


class TestResidualGamma:
    def test_small_on_solved_problems(self):
        problem, _ = gen_ilse_instance(small_params(1))
        assert residual_gamma(problem, solve_ilse(problem)) <= 1e-12

    def test_matches_the_assembled_augmented_system(self):
        problem, _ = gen_ilse_instance(small_params(2))
        rng = np.random.default_rng(4)
        lam = rng.standard_normal(problem.s)
        r = rng.standard_normal(problem.m)
        sol = IlseSolution(x=rng.standard_normal(problem.n), xi=-lam, lam=lam, r=r,
                           s_vec=apply_signature(problem.sig, r))
        K, rhs = assemble_augmented(problem)
        u = np.concatenate([sol.lam, sol.s_vec, sol.x])
        dense = np.linalg.norm(K @ u - rhs) / (np.linalg.norm(K) * np.linalg.norm(u) + np.linalg.norm(rhs))
        assert residual_gamma(problem, sol) == pytest.approx(dense, rel=1e-12)


class TestRunTrial:
    def test_zero_eps_reuses_solution_bitwise(self):
        params = small_params(0)
        row = run_trial(params, 0.0, WeightScheme(), seed=7)
        assert not row.failed
        assert row.mu_1 == 0.0
        assert row.rho_xi1 <= 1e-10
        assert row.gamma == row.gamma_bar

    def test_row_values_finite_and_nonnegative(self):
        row = run_trial(small_params(0), 1e-6, WeightScheme(), seed=8)
        for value in (row.gamma, row.gamma_bar, row.mu_1, row.rho_xi1):
            assert np.isfinite(value) and value >= 0.0

    def test_failure_recorded_not_raised(self):
        # negative-definite quadratic form: generation can never succeed
        params = GenParams(m=4, n=2, s=1, p=0, q=4, kappa_a=2.0, kappa_b=2.0, seed=0)
        row = run_trial(params, 1e-6, WeightScheme(), seed=9)
        assert row.failed
        assert "GenerationError" in row.reason
        assert math.isnan(row.mu_1)

    @pytest.mark.parametrize(
        "eps,rho_range,mu_range",
        [
            (1e-6, (1e-7, 1e-4), (1e-5, 1e-3)),
            (1e-12, (1e-13, 1e-9), (1e-11, 1e-9)),
        ],
    )
    def test_benign_paper_cell_magnitudes(self, eps, rho_range, mu_range):
        params = GenParams(m=100, n=50, s=20, p=60, q=40, kappa_a=1e2, kappa_b=1e2, seed=0)
        row = run_trial(params, eps, WeightScheme(), seed=17)
        assert not row.failed
        assert rho_range[0] <= row.rho_xi1 <= rho_range[1]
        assert mu_range[0] <= row.mu_1 <= mu_range[1]


class TestRunExperiment:
    def test_single_cell(self):
        config = small_config(trials_per_cell=1)
        rows, table = run_experiment(config)
        assert len(rows) == 1
        assert table.splitlines()[0] == CSV_HEADER

    def test_grid_size_and_order(self):
        config = small_config(eps_list=(1e-6, 1e-8), kappa_b_list=(50.0, 100.0),
                              trials_per_cell=2)
        rows, _ = run_experiment(config)
        assert len(rows) == 2 * 1 * 2 * 2
        assert [r.eps for r in rows[:4]] == [1e-6] * 4
        assert rows[0].kappa_b == 50.0 and rows[2].kappa_b == 100.0

    def test_deterministic_output(self):
        config = small_config()
        _, t1_ = run_experiment(config)
        _, t2_ = run_experiment(config)
        assert t1_ == t2_

    def test_all_failed_raises(self):
        config = ExperimentConfig(
            m=4, n=2, s=1, p=0, q=4,
            kappa_a_list=(2.0,), kappa_b_list=(2.0,), eps_list=(1e-6,),
            trials_per_cell=2, base_seed=1,
        )
        from ilse import IlseError

        with pytest.raises(IlseError):
            run_experiment(config)

    def test_config_dict_round_trip(self):
        data = {
            "m": 24, "n": 12, "s": 5, "p": 14, "q": 10,
            "kappa_a_list": [50.0], "kappa_b_list": [100.0], "eps_list": [1e-6],
            "trials_per_cell": 2, "base_seed": 424242,
            "theta1": 1.0, "theta2": 1.0, "theta3": 1.0,
            "output_format": "json", "hyper_bound": 1.0,
        }
        assert ExperimentConfig.from_dict(data) == small_config(output_format="json")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            small_config(eps_list=())
        with pytest.raises(ValueError):
            small_config(trials_per_cell=0)
        with pytest.raises(ValueError):
            small_config(output_format="tsv")
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"bogus_key": 1})
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict(None)


@pytest.fixture(scope="module")
def rows():
    rows, _ = run_experiment(small_config(trials_per_cell=3))
    return rows


class TestFormats:
    def test_csv_summary_lines_commented(self, rows):
        text = format_rows(rows, "csv")
        summary = [ln for ln in text.splitlines() if ln.startswith("#")]
        assert summary and "median rho_xi1/eps" in summary[0]

    def test_markdown(self, rows):
        text = format_rows(rows, "markdown")
        lines = text.splitlines()
        assert lines[0].startswith("| eps |")
        assert lines[0].strip("| ").split(" | ") == CSV_HEADER.split(",")
        assert len([ln for ln in lines if ln.startswith("| ")]) == len(rows) + 1

    def test_json(self, rows):
        import json

        payload = json.loads(format_rows(rows, "json"))
        assert len(payload["rows"]) == len(rows)
        assert CSV_HEADER == ",".join(key for key, _ in JSON_SCHEMA[:11])
        for record, row in zip(payload["rows"], rows):
            assert list(record) == [key for key, _ in JSON_SCHEMA]
            np.testing.assert_equal(record, {key: getattr(row, name) for key, name in JSON_SCHEMA})
            assert isinstance(record["condition_flag"], bool)
        assert payload["summary"]

    def test_parse_rejects_bad_header(self):
        with pytest.raises(ValueError):
            parse_experiment_csv("a,b,c\n1,2,3\n")


class TestProblemFiles:
    def test_round_trip(self, tmp_path, t1):
        write_problem(tmp_path / "bundle", t1)
        names = sorted(p.name for p in (tmp_path / "bundle").iterdir())
        assert names == ["A", "B", "b", "d", "sig"]
        again = read_problem(tmp_path / "bundle")
        assert np.array_equal(again.A, t1.A)
        assert np.array_equal(again.b, t1.b)
        assert np.array_equal(again.B, t1.B)
        assert np.array_equal(again.d, t1.d)
        assert again.sig == t1.sig

    def test_round_trip_random_values_exact(self, tmp_path):
        problem, _ = gen_ilse_instance(small_params(3))
        write_problem(tmp_path / "p", problem)
        again = read_problem(tmp_path / "p")
        assert np.array_equal(again.A, problem.A)
        assert np.array_equal(again.d, problem.d)

    def test_malformed_matrix_file(self, tmp_path):
        from ilse.harness import read_matrix

        bad = tmp_path / "M"
        # Too few entries, headers that are not two non-negative integers,
        # an entry that is not a number, then a byte outside ASCII.
        for text in ("2 2\n1.0 2.0 3.0\n", "-1 -2\n1.0 2.0\n", "-2 1\n", "1.5 2\n1.0 2.0 3.0\n",
                     "2 1\n1.0\nabc\n", b"2 1\n1.0\n2.0\xc2\xa0\n"):
            if isinstance(text, bytes):
                bad.write_bytes(text)
            else:
                bad.write_text(text)
            with pytest.raises(ValueError, match=re.escape(str(bad))):
                read_matrix(bad)

    @pytest.mark.parametrize("text", ["1.5 5", "-1 7", "a b", pytest.param(b"1\xc2\xa0 1", id="non-ascii")])
    def test_malformed_sig_file_names_it(self, tmp_path, t1, text):
        write_problem(tmp_path / "p", t1)
        if isinstance(text, bytes):
            (tmp_path / "p" / "sig").write_bytes(text + b"\n")
        else:
            (tmp_path / "p" / "sig").write_text(text + "\n")
        with pytest.raises(ValueError, match=re.escape(str(tmp_path / "p" / "sig"))):
            read_problem(tmp_path / "p")

    def test_vector_requires_single_column(self, tmp_path):
        from ilse.harness import read_vector, write_matrix

        write_matrix(tmp_path / "M", np.eye(2))
        with pytest.raises(ValueError):
            read_vector(tmp_path / "M")


class TestVerifySuite:
    def test_property_result_bookkeeping(self):
        result = properties.RowResult("demo")
        result.add(properties.Outcome(True, value=2.0))
        result.add(properties.Outcome(False, "broke"))
        result.add(properties.SKIP_ZERO_RESIDUAL)
        result.add(properties.SKIP_ZERO_RESIDUAL)
        assert (result.passed, result.failed, result.skipped) == (1, 1, 2)
        assert not result.ok
        assert result.values == [2.0]
        assert result.line() == (
            "[FAIL] demo: passed=1 failed=1 skipped=2 (broke; precondition unmet: r_y = 0)"
        )

    def test_mutation_in_assembly_is_caught(self, monkeypatch):
        # emulate a sign bug on the -|y| A^T S term of the compressed
        # assembly (a whole-block sign flip would be an orthogonal
        # transformation and invisible to singular values): the closed-form
        # bound and the explicit-SVD oracle on the Kronecker-built J must
        # disagree and the property must fail
        from ilse.core import apply_signature

        original = be._multiplier_free_blocks

        def corrupted(problem, y, w):
            u, y_norm, r_y, sr, blocks = original(problem, y, w)
            blocks = blocks.copy()
            blocks[:, :problem.m] += 2.0 * y_norm * apply_signature(problem.sig, problem.A).T
            return u, y_norm, r_y, sr, blocks

        monkeypatch.setattr(be, "_multiplier_free_blocks", corrupted)
        assert properties.run_row(properties.tau0_closed_form, properties.Suite(seed=5)).failed > 0

    def test_zero_residual_cases_are_skipped(self, monkeypatch):
        from ilse import IlseProblem, SignatureMatrix

        problem = IlseProblem(
            A=np.array([[1.0], [0.0]]), b=np.array([0.5, 0.0]),
            B=np.array([[1.0]]), d=np.array([0.5]), sig=SignatureMatrix(1, 1),
        )
        sol = solve_ilse(problem)

        def fake_case(dims, eps, seed):
            return problem, sol, None, sol

        monkeypatch.setattr(properties, "solved_case", fake_case)
        rank_result = properties.run_row(properties.full_row_rank, properties.Suite(seed=6))
        assert rank_result.skipped > 0
        assert rank_result.failed == 0
        assert "precondition unmet" in rank_result.detail
