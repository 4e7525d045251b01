"""Self-tests of the benchmark; not part of the library's test suite.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import corpus  # noqa: E402
from measure import exponent, slow_half_mean, tail_percentile  # noqa: E402

TINY = corpus.Workload("tiny", "test", pairs=30, legacy_share=1 / 3)


def _cli(*argv: str) -> str:
    from uccakit.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def _corpus_bytes(workload: corpus.Workload, seed: int) -> list[bytes]:
    return [corpus.to_xml(m) for pair in corpus.generate(workload, seed) for m in pair]


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for workload in corpus.WORKLOADS.values():
            self.assertEqual(_corpus_bytes(workload, 7), _corpus_bytes(workload, 7), workload.name)

    def test_other_seed_other_bytes(self):
        for workload in corpus.WORKLOADS.values():
            self.assertNotEqual(_corpus_bytes(workload, 7), _corpus_bytes(workload, 8), workload.name)

    def test_large_passages_span_sixteen_fold(self):
        sizes = [len(g.tokens) for _, g in corpus.generate(corpus.WORKLOADS["large-passages"], 1)]
        self.assertGreaterEqual(max(sizes) / min(sizes), 16)


class CheckerTest(unittest.TestCase):
    def setUp(self):
        self.work = ROOT / ".bench_work" / "selftest"
        shutil.rmtree(self.work, ignore_errors=True)
        self.pairs = corpus.generate(TINY, 3)
        self.golds = [g for _, g in self.pairs]
        self.gold, self.system = corpus.write_corpus(self.pairs, self.work)

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def test_real_outputs_pass(self):
        evaluate = _cli("evaluate", "--gold", str(self.gold), "--system", str(self.system),
                        "--fine-grained", "--json")
        self.assertEqual(checks.check_evaluate(evaluate, corpus.expected_scores(self.pairs)), [])
        stats = _cli("stats", str(self.gold), "--json")
        self.assertEqual(checks.check_stats(stats, corpus.expected_stats(self.golds)), [])
        validate = _cli("validate", str(self.gold), "--json")
        self.assertGreater(corpus.legacy_edges(self.golds), 0)
        self.assertEqual(checks.check_validate(validate, corpus.legacy_edges(self.golds)), [])
        _cli("normalize", str(self.gold), "--out", str(self.work / "norm"))
        self.assertEqual(checks.check_normalize(self.work / "norm", self.golds), [])
        _cli("convert", str(self.gold), "--to", "bilexical", "--out", str(self.work / "bilex"))
        self.assertEqual(checks.check_bilexical(self.work / "bilex", self.golds), [])

    def test_corrupted_evaluate_is_flagged(self):
        expected = corpus.expected_scores(self.pairs)
        payload = json.loads(_cli("evaluate", "--gold", str(self.gold), "--system", str(self.system),
                                  "--fine-grained", "--json"))
        payload["unlabeled"]["remote"]["matched"] += 1
        self.assertTrue(checks.check_evaluate(json.dumps(payload), expected))
        payload["unlabeled"]["remote"]["matched"] -= 1
        code = sorted(payload["by_category"])[0]
        payload["by_category"][code]["gold"] += 1
        self.assertTrue(checks.check_evaluate(json.dumps(payload), expected))
        del payload["by_category"][code]
        self.assertTrue(checks.check_evaluate(json.dumps(payload), expected))
        self.assertTrue(checks.check_evaluate("{not json", expected))

    def test_unnormalized_output_is_flagged(self):
        shutil.copytree(self.gold, self.work / "norm")
        self.assertTrue(checks.check_normalize(self.work / "norm", self.golds))


class NumbersTest(unittest.TestCase):
    def test_exponent_fit(self):
        sizes = [50, 100, 200, 400, 800, 1600]
        self.assertAlmostEqual(exponent(sizes, [3e-6 * n for n in sizes]), 1.0, places=6)
        self.assertAlmostEqual(exponent(sizes, [2e-8 * n * n for n in sizes]), 2.0, places=6)

    def test_deadline_passes_failure_handlers(self):
        from run import Deadline

        self.assertFalse(issubclass(Deadline, Exception))

    def test_slow_half_mean_keeps_the_median_and_above(self):
        self.assertEqual(slow_half_mean([4.0, 1.0, 3.0, 2.0]), 3.5)
        self.assertEqual(slow_half_mean([5.0, 1.0, 2.0, 4.0, 3.0]), 4.0)
        self.assertEqual(slow_half_mean([7.0]), 7.0)

    def test_p99_needs_ten_samples_beyond(self):
        self.assertIsNone(tail_percentile([1.0] * 999))
        values = list(range(1, 1001))
        self.assertEqual(tail_percentile(values), 990)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_matches_the_run(self):
        import run

        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(corpus.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
