"""First-error localization scoring and the published-F1 arithmetic fixtures."""

import json
import random
import re
from fractions import Fraction

import pytest

from treeprm.evaluation import (
    AnnotatedSample,
    EvalInputError,
    Prediction,
    f1_from_accuracies,
    load_annotated,
    load_predictions,
    locate_first_error,
    recompute_reference_table,
    reference_rows,
    render_score_table,
    score_samples,
    write_annotated,
    write_predictions,
)


class TestLocateFirstError:
    def test_first_negative(self):
        assert locate_first_error([1, 1, -1, 1]) == 3

    def test_all_valid(self):
        assert locate_first_error([1, 1, 1]) is None

    def test_boundary(self):
        assert locate_first_error([-1, 1]) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            locate_first_error([])


def exact_hm(e: str, c: str) -> Fraction:
    ef, cf = Fraction(e), Fraction(c)
    if ef + cf == 0:
        return Fraction(0)
    return 2 * ef * cf / (ef + cf)


class TestF1:
    def test_fixed_point(self):
        for x in (0.0, 12.5, 50.0, 100.0):
            assert f1_from_accuracies(x, x) == pytest.approx(x)

    def test_zero_when_either_class_is_zero(self):
        assert f1_from_accuracies(0.0, 98.4) == 0.0
        assert f1_from_accuracies(31.0, 0.0) == 0.0
        assert f1_from_accuracies(0.0, 0.0) == 0.0

    def test_symmetry(self):
        assert f1_from_accuracies(24.2, 98.4) == f1_from_accuracies(98.4, 24.2)

    def test_strictly_between_min_and_max(self):
        rng = random.Random(31)
        for _ in range(500):
            e = rng.uniform(0.1, 100)
            c = rng.uniform(0.1, 100)
            f1 = f1_from_accuracies(e, c)
            if abs(e - c) > 1e-9:
                assert min(e, c) < f1 < max(e, c)

    def test_spot_anchor_rows(self):
        # Exact-rational oracles for the two anchor rows.
        assert exact_hm("24.2", "98.4") == Fraction("4762.56") / Fraction("122.6")
        assert f1_from_accuracies(24.2, 98.4) == pytest.approx(38.84632952691681, abs=1e-9)
        assert round(f1_from_accuracies(24.2, 98.4), 1) == 38.8
        assert f1_from_accuracies(46.4, 95.9) == pytest.approx(62.54054813773718, abs=1e-9)
        assert round(f1_from_accuracies(46.4, 95.9), 1) == 62.5


class TestScoreSamples:
    def _sample(self, sid, first_error, steps=3):
        return AnnotatedSample(sample_id=sid, problem="p",
                               steps=tuple(f"s{i}" for i in range(steps)),
                               gold_first_error=first_error)

    def test_exact_match_scoring(self):
        annotations = [
            self._sample("a", 2), self._sample("b", 1), self._sample("c", None),
            self._sample("d", None),
        ]
        predictions = [
            Prediction("a", 2),      # hit
            Prediction("b", 3),      # miss (wrong index)
            Prediction("c", None),   # hit
            Prediction("d", 1),      # miss (called an error on a valid sample)
        ]
        report = score_samples(predictions, annotations)
        assert report.error_accuracy == pytest.approx(50.0)
        assert report.correct_accuracy == pytest.approx(50.0)
        assert report.f1 == pytest.approx(50.0)
        assert report.counts == {
            "error_samples": 2, "error_correctly_localized": 1,
            "all_valid_samples": 2, "all_valid_correctly_identified": 1,
        }

    def test_no_offbyone_credit(self):
        annotations = [self._sample("a", 2)]
        report = score_samples([Prediction("a", 3)], annotations)
        assert report.error_accuracy == 0.0

    def test_misaligned_ids_rejected(self):
        with pytest.raises(EvalInputError, match="misaligned"):
            score_samples([Prediction("x", 1)], [self._sample("y", 1)])

    def test_length_mismatch_rejected(self):
        with pytest.raises(EvalInputError, match="1 predictions vs 2"):
            score_samples([Prediction("a", 1)],
                          [self._sample("a", 1), self._sample("b", 1)])

    def test_gold_index_bounds_validated(self):
        with pytest.raises(ValueError, match="outside"):
            self._sample("a", 9, steps=3)


class TestReferenceTable:
    def test_all_bundled_rows_within_rounding_band(self):
        rows = reference_rows()
        assert len(rows) == 12
        for row, recomputed in recompute_reference_table(rows):
            exact = exact_hm(str(row.error_accuracy), str(row.correct_accuracy))
            assert abs(float(exact) - recomputed) <= 1e-9
            assert abs(recomputed - row.reported_f1) <= 0.05, row

    def test_rows_cover_both_benchmarks(self):
        benchmarks = {row.benchmark for row in reference_rows()}
        assert benchmarks == {"GSM8K", "MATH"}

    def test_render_table_layout(self):
        rows = [("some-model", "GSM8K", 24.2, 98.4, 38.8)]
        text = render_score_table(rows)
        lines = text.strip().split("\n")
        assert "error" in lines[0] and "correct" in lines[0] and "F1" in lines[0]
        assert "24.2" in lines[2] and "98.4" in lines[2] and "38.8" in lines[2]


class TestSyntheticLocalization:
    def test_exact_verifier_scores_perfectly_on_annotated_corpus(self):
        from treeprm.synthetic import SyntheticCorpusConfig, build_corpus, oracle_labels

        corpus = build_corpus(
            SyntheticCorpusConfig(count=150, num_terms=(2, 7), value_range=(10, 99),
                                  seed=77, error_rate=0.5)
        )
        annotations = [
            AnnotatedSample(
                sample_id=trace.problem.id,
                problem=trace.problem.statement,
                steps=tuple(s.action for s in trace.trajectory.steps),
                gold_first_error=trace.first_error_index,
            )
            for trace in corpus
        ]
        predictions = [
            Prediction(
                sample_id=trace.problem.id,
                first_error=locate_first_error(
                    oracle_labels(trace.trajectory.steps, trace)
                ),
            )
            for trace in corpus
        ]
        report = score_samples(predictions, annotations)
        assert report.counts["error_samples"] > 0
        assert report.counts["all_valid_samples"] > 0
        assert report.error_accuracy == 100.0
        assert report.correct_accuracy == 100.0
        assert report.f1 == 100.0


class TestFileFormats:
    def test_round_trip(self, tmp_path):
        annotations = [
            AnnotatedSample("s1", "p1", ("a", "b"), 2),
            AnnotatedSample("s2", "p2", ("a",), None),
        ]
        predictions = [Prediction("s1", 2), Prediction("s2", None)]
        write_annotated(tmp_path / "ann.jsonl", annotations)
        write_predictions(tmp_path / "pred.jsonl", predictions)
        assert load_annotated(tmp_path / "ann.jsonl") == annotations
        assert load_predictions(tmp_path / "pred.jsonl") == predictions
        text = (tmp_path / "ann.jsonl").read_text(encoding="utf-8")
        assert '"first_error":"all-valid"' in text

    def test_bad_sentinel_rejected(self, tmp_path):
        path = tmp_path / "pred.jsonl"
        path.write_text('{"id": "s1", "first_error": "dunno"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="all-valid"):
            load_predictions(path)

    @pytest.mark.parametrize("loader, record, message", [
        (load_annotated, '{"id": "s2", "first_error": 1}', "missing key 'steps'"),
        (load_annotated, '{"id": "s2", "steps": "ab", "first_error": 1}',
         "steps must be a list of strings"),
        (load_annotated, '{"id": "s2", "steps": ["a"], "first_error": "x"}',
         "first_error must be an integer"),
        (load_annotated, '{"id": "s2", "steps": ["a"], "first_error": 3}',
         "gold_first_error 3 outside"),
        (load_predictions, '{"id": "s2"}', "missing key 'first_error'"),
        (load_predictions, '{"id": "s2", "first_error": 1.5}', "first_error must be an integer"),
    ])
    def test_bad_record_names_file_and_line(self, tmp_path, loader, record, message):
        path = tmp_path / "in.jsonl"
        path.write_text('{"id": "s1", "steps": ["a"], "first_error": 1}\n\n' + record + "\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))} line 3: {message}"):
            loader(path)

    @pytest.mark.parametrize("row, message", [
        ({"model": "m", "error": 40.0}, "missing key 'correct'"),
        ({"error": 40.0, "correct": 60.0}, "missing key 'model'"),
        ({"model": "m", "error": "40", "correct": 60.0}, "error must be a number, got '40'"),
        ({"model": "m", "error": 40.0, "correct": 60.0, "f1": True},
         "f1 must be a number, got True"),
        ([40.0, 60.0], "list indices"),
    ])
    def test_bad_reference_row_names_file_and_row(self, tmp_path, row, message):
        path = tmp_path / "pairs.json"
        good = {"model": "m", "error": 40.0, "correct": 60.0}
        path.write_text(json.dumps({"rows": [good, row]}), encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))} rows\\[1\\]: {message}"):
            reference_rows(path)

    @pytest.mark.parametrize("text", ['[{"model": "m"}]', '{"rows": 5}', "{"])
    def test_reference_file_without_rows_list_names_file(self, tmp_path, text):
        path = tmp_path / "pairs.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            reference_rows(path)
