"""Unit tests of the ivt_bench statistics and output checks.

    python3 -m unittest discover -s ivt_bench -p 'test_*.py'
"""
import contextlib
import io
import math
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import agree  # noqa: E402
import benchstats  # noqa: E402
import run  # noqa: E402


class MedianAndQuartiles(unittest.TestCase):
    def test_match_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        q1, q2, q3 = benchstats.quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
        self.assertEqual(q2, statistics.median(values))

    def test_single_value_has_no_spread(self):
        self.assertEqual(benchstats.quartiles([2.5]), (2.5, 2.5, 2.5))
        self.assertEqual(benchstats.spread([2.5]), 0.0)

    def test_spread_is_iqr_over_median(self):
        q1, q2, q3 = statistics.quantiles([1.0, 2.0, 3.0, 4.0], n=4)
        self.assertAlmostEqual(benchstats.spread([1.0, 2.0, 3.0, 4.0]),
                               (q3 - q1) / q2)


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(benchstats.percentile(values, 50), 50)
        self.assertEqual(benchstats.percentile(values, 90), 90)
        self.assertEqual(benchstats.percentile(values, 99), 99)
        self.assertEqual(benchstats.percentile(values, 100), 100)

    def test_failed_request_misses_every_limit(self):
        values = [10.0] * 95 + [math.inf] * 5
        self.assertEqual(benchstats.percentile(values, 95), 10.0)
        self.assertEqual(benchstats.percentile(values, 96), math.inf)

    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(benchstats.highest_supported_percentile(10000), 99.9)
        self.assertEqual(benchstats.highest_supported_percentile(1000), 99.0)
        self.assertEqual(benchstats.highest_supported_percentile(999), 95.0)
        self.assertEqual(benchstats.highest_supported_percentile(200), 95.0)
        self.assertEqual(benchstats.highest_supported_percentile(199), 90.0)
        self.assertEqual(benchstats.highest_supported_percentile(100), 90.0)
        self.assertEqual(benchstats.highest_supported_percentile(20), 50.0)
        self.assertIsNone(benchstats.highest_supported_percentile(19))


def step(rate, tail_ms=50.0, failed=0, requests=1000, growth=0.0):
    return {"rate": rate, "tail_ms": tail_ms, "failed": failed,
            "requests": requests, "late_growth_ms": growth}


class MaxSustainableRate(unittest.TestCase):
    def test_highest_passing_step(self):
        steps = [step(25), step(35), step(50, tail_ms=90.0)]
        self.assertEqual(benchstats.max_sustainable_rate(steps, 100.0), 50)

    def test_latency_over_the_limit_fails(self):
        steps = [step(25), step(35), step(50, tail_ms=101.0)]
        self.assertEqual(benchstats.max_sustainable_rate(steps, 100.0), 35)

    def test_more_than_one_percent_failed_fails(self):
        steps = [step(25), step(35, failed=10), step(50, failed=11)]
        self.assertEqual(benchstats.max_sustainable_rate(steps, 100.0), 35)

    def test_growing_backlog_fails(self):
        steps = [step(25, growth=4.0), step(35, growth=6.0)]
        self.assertEqual(benchstats.max_sustainable_rate(steps, 100.0), 25)

    def test_stops_at_first_failing_step(self):
        steps = [step(25), step(35, tail_ms=500.0), step(50)]
        self.assertEqual(benchstats.max_sustainable_rate(steps, 100.0), 25)

    def test_failing_lowest_step_sustains_nothing(self):
        self.assertIsNone(benchstats.max_sustainable_rate(
            [step(25, tail_ms=500.0)], 100.0))

    def test_late_growth(self):
        due = [i / 10.0 for i in range(90)]
        self.assertEqual(benchstats.late_growth_ms(due, [3.0] * 90), 0.0)
        self.assertEqual(benchstats.late_growth_ms(due, [40.0] * 90), 0.0)
        self.assertEqual(benchstats.late_growth_ms(due, [i * 2.0 for i in range(90)]),
                         120.0)


def jobs(digests, errors=(), wall=1.0, slowdown=1.0):
    n = len(digests)
    return {"wall": [wall] * n, "cpu": [wall] * n, "steal": [0.0] * n,
            "calib": [slowdown * run.CALIB_REF_S] * n,
            "slowdown": [slowdown] * n, "rss": [10.0] * n,
            "digests": list(digests), "errors": list(errors)}


class OutputChecks(unittest.TestCase):
    def finish(self, per_mode):
        res = run.Result()
        run.add_job_metrics(res, per_mode, 4)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run.report(res, {})
        return res, code, out.getvalue()

    def test_matching_digests_pass(self):
        res, code, out = self.finish({m: jobs(["d1", "d1"]) for m in run.JOB_MODES})
        self.assertEqual(code, 0)
        self.assertEqual((res.attempted, res.failed), (6, 0))
        self.assertIn('"correct": true', out)

    def test_mismatched_digest_fails_the_run(self):
        per_mode = {m: jobs(["d1", "d1"]) for m in run.JOB_MODES}
        per_mode["streaming"] = jobs(["d1", "d2"])
        res, code, out = self.finish(per_mode)
        self.assertNotEqual(code, 0)
        self.assertEqual(res.failed, 1)
        self.assertIn('"correct": false', out)

    def test_failed_job_fails_the_run(self):
        per_mode = {m: jobs(["d1"]) for m in run.JOB_MODES}
        per_mode["dist"] = jobs(["d1"], errors=["node lost"])
        res, code, _ = self.finish(per_mode)
        self.assertNotEqual(code, 0)
        self.assertEqual((res.attempted, res.failed), (4, 1))


class ServeMetrics(unittest.TestCase):
    def test_refused_requests(self):
        # 0 = ok, 1 = Overloaded; the first request is cache fill.
        load = {"warmup_requests": 1, "status": [0, 0, 1, 1, 0, 1, 1],
                "latency_ms": [900.0, 40.0, 5.0, 5.0, 60.0, 5.0, 5.0],
                "server_ms": [800.0, 4.0, -1.0, -1.0, 20.0, -1.0, -1.0],
                "state_checks": 2, "check_failures": []}
        res = run.Result()
        run.add_serve_metrics(res, load, 1.0)
        # Slow in the median, absent from the mean, counted as failed.
        self.assertEqual(res.metrics["serve_p50_ms"]["value"], math.inf)
        self.assertEqual(res.metrics["serve_mean_ms"]["value"], 50.0)
        # A median that may be a failure cannot be told from any other.
        self.assertEqual(res.metrics["serve_p50_ms"]["spread"], math.inf)
        self.assertEqual((res.attempted, res.failed), (8, 4))
        self.assertEqual(res.problems, [])

    def test_server_time_is_taken_at_reference_speed(self):
        # Twice as slow a host: the server's part of each latency halves,
        # the wait on the network does not.
        load = {"warmup_requests": 0, "status": [0, 0, 0],
                "latency_ms": [44.0, 61.0, 49.0], "server_ms": [4.0, 20.0, 8.0],
                "state_checks": 0, "check_failures": []}
        res = run.Result()
        run.add_serve_metrics(res, load, 2.0)
        # 42, 51 and 45 ms at the reference speed.
        self.assertEqual(res.metrics["serve_mean_ms"]["value"], 46.0)
        self.assertEqual(res.metrics["serve_p50_ms"]["value"], 45.0)


class HostSpeed(unittest.TestCase):
    def test_steal_is_spread_over_the_vcpus(self):
        acc = {"wall": [1.0, 0.5], "steal": [0.4, 0.0]}
        self.assertEqual(run.steal_adjusted(acc, 4), [0.9, 0.5])

    def test_slowdown_is_local_reference_time_over_nominal(self):
        ref = run.CALIB_REF_S
        calibs = [ref] * 10 + [2 * ref] * 10
        factors = run.slowdowns(calibs, window=2)
        self.assertEqual(len(factors), 20)
        self.assertAlmostEqual(factors[0], 1.0)
        self.assertAlmostEqual(factors[-1], 2.0)
        # Child 9 sees children 7-11: three at speed 1, two at half speed.
        self.assertAlmostEqual(factors[9], 1.4)
        self.assertEqual(run.slowdowns([]), [])

    def test_times_are_reported_at_reference_speed(self):
        # Twice as slow a host: job and CPU times halve; a dist job keeps
        # its coordination time (dist - streaming) and scales the rest.
        per_mode = {"batch": jobs(["d"], wall=0.8, slowdown=2.0),
                    "streaming": jobs(["d"], wall=0.4, slowdown=2.0),
                    "dist": jobs(["d"], wall=1.4, slowdown=2.0)}
        res = run.Result()
        run.add_job_metrics(res, per_mode, 4)
        value = lambda name: res.metrics[name]["value"]  # noqa: E731
        self.assertAlmostEqual(value("batch_s"), 0.4)
        self.assertAlmostEqual(value("batch_cpu_s"), 0.4)
        self.assertAlmostEqual(value("stream_s"), 0.2)
        self.assertAlmostEqual(value("dist_s"), 1.0 + 0.2)
        self.assertEqual(value("batch_peak_rss_mb"), 10.0)

    def test_job_times_are_means(self):
        per_mode = {m: jobs(["d"] * 4) for m in run.JOB_MODES}
        per_mode["batch"]["wall"] = [1.0, 1.0, 1.0, 3.0]
        res = run.Result()
        run.add_job_metrics(res, per_mode, 4)
        self.assertAlmostEqual(res.metrics["batch_s"]["value"], 1.5)


class DistShare(unittest.TestCase):
    def test_dist_runs_while_under_its_share(self):
        self.assertTrue(run.dist_due(0.0, 0.0))
        self.assertFalse(run.dist_due(1.0, 4.0))
        self.assertTrue(run.dist_due(1.0, 1.0 / run.DIST_SHARE))


class Deadline(unittest.TestCase):
    def test_long_runs_are_not_cut_short(self):
        # A workload spends about --seconds measuring; its children must
        # outlive that with room for set-up, for every --seconds.
        for seconds in (1.0, 36.0, 120.0, 600.0):
            self.assertGreater(run.deadline_s(seconds, 1), seconds + 60.0)
            self.assertEqual(run.deadline_s(seconds, 3),
                             3 * run.deadline_s(seconds, 1))


class ResampledSpread(unittest.TestCase):
    def test_identical_samples_cannot_move(self):
        self.assertEqual(benchstats.resampled_spread([2.0] * 20, statistics.mean), 0.0)
        self.assertEqual(benchstats.resampled_spread([2.0], statistics.mean), 0.0)

    def test_noisier_samples_move_more_and_the_same_every_time(self):
        steady = [1.0 + 0.01 * (i % 5) for i in range(30)]
        noisy = [1.0 + 0.5 * (i % 5) for i in range(30)]
        spread = benchstats.resampled_spread(noisy, statistics.mean)
        self.assertGreater(spread, benchstats.resampled_spread(steady, statistics.mean))
        self.assertEqual(spread, benchstats.resampled_spread(noisy, statistics.mean))

    def test_recorded_with_every_metric(self):
        res = run.Result()
        res.add("m", [1.0, 2.0, 3.0, 4.0], statistics.mean)
        self.assertEqual(res.metrics["m"]["spread"],
                         benchstats.resampled_spread([1.0, 2.0, 3.0, 4.0],
                                                     statistics.mean))


class Agree(unittest.TestCase):
    @staticmethod
    def metric(value, spread=0.01):
        return {"value": value, "spread": spread}

    def test_verdicts(self):
        steady = self.metric(1.0)
        self.assertEqual(agree.verdict(steady, self.metric(1.05), "lower", 0.1), "agree")
        self.assertEqual(agree.verdict(steady, self.metric(1.2), "lower", 0.1), "worse")
        self.assertEqual(agree.verdict(steady, self.metric(1.2), "higher", 0.1), "agree")
        noisy = self.metric(1.0, spread=0.5)
        self.assertEqual(agree.verdict(steady, noisy, "lower", 0.1), "unresolved")
        self.assertEqual(agree.verdict(noisy, steady, "lower", 0.1), "unresolved")


if __name__ == "__main__":
    unittest.main()
